package core

import (
	"fmt"

	"ibmig/internal/blcr"
	"ibmig/internal/cluster"
	"ibmig/internal/ftb"
	"ibmig/internal/ib"
	"ibmig/internal/obs"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// NLAState is the Node Launch Agent state machine from the paper.
type NLAState int

// NLA states.
const (
	// StateReady: an active primary node ("MIGRATION_READY").
	StateReady NLAState = iota
	// StateSpare: a hot-spare node awaiting migrated processes
	// ("MIGRATION_SPARE").
	StateSpare
	// StateInactive: a node whose processes have been migrated away
	// ("MIGRATION_INACTIVE").
	StateInactive
)

func (s NLAState) String() string {
	switch s {
	case StateReady:
		return "MIGRATION_READY"
	case StateSpare:
		return "MIGRATION_SPARE"
	case StateInactive:
		return "MIGRATION_INACTIVE"
	}
	return "UNKNOWN"
}

// NLA is the per-node launch agent: it starts/terminates local application
// processes and executes the node-local side of migrations.
type NLA struct {
	fw     *Framework
	node   *cluster.Node
	state  NLAState
	client *ftb.Client

	// Transitions records the state history for tests and tooling.
	Transitions []NLAState
}

func newNLA(fw *Framework, n *cluster.Node, st NLAState) *NLA {
	nla := &NLA{
		fw:          fw,
		node:        n,
		state:       st,
		client:      fw.C.FTB.Connect(n.Name, "nla@"+n.Name),
		Transitions: []NLAState{st},
	}
	sub := nla.client.Subscribe(ftb.NamespaceMVAPICH, "")
	fw.C.E.Spawn("core.nla."+n.Name, func(p *sim.Proc) { nla.loop(p, sub) })
	return nla
}

// State returns the current state.
func (a *NLA) State() NLAState { return a.state }

func (a *NLA) setState(s NLAState) {
	a.state = s
	a.Transitions = append(a.Transitions, s)
	a.fw.C.E.Trace("core.nla", a.node.Name, s.String())
}

func (a *NLA) loop(p *sim.Proc, sub *ftb.Subscription) {
	for {
		ev, ok := sub.Recv(p)
		if !ok {
			return
		}
		switch ev.Name {
		case ftb.EventMigrate:
			pl, isPl := ev.Payload.(MigratePayload)
			if !isPl {
				continue
			}
			m := a.fw.current
			if m == nil || m.seq != pl.Seq || m.aborted {
				continue
			}
			if pl.Target == a.node.Name {
				p.SpawnChild("core.nla.target."+a.node.Name, func(tp *sim.Proc) { a.runTarget(tp, m) })
			}
			if pl.Source == a.node.Name {
				p.SpawnChild("core.nla.source."+a.node.Name, func(sp *sim.Proc) { a.runSource(sp, m) })
			}
		case ftb.EventRestart:
			pl, isPl := ev.Payload.(RestartPayload)
			if !isPl || pl.Target != a.node.Name {
				continue
			}
			m := a.fw.current
			if m == nil || m.seq != pl.Seq || m.aborted {
				continue
			}
			if m.restartSpawned {
				// A re-published FTB_RESTART after a suspected loss. If the
				// restart already finished, it was the DONE notification that
				// got lost — resend it; otherwise the running restart will
				// publish it on its own.
				if m.restarted.Fired() {
					a.client.Publish(p, ftb.Event{
						Namespace: ftb.NamespaceMVAPICH,
						Name:      eventRestartDone,
						Payload:   m.seq,
					})
				}
				continue
			}
			m.restartSpawned = true
			p.SpawnChild("core.nla.restart."+a.node.Name, func(rp *sim.Proc) { a.runRestart(rp, m) })
		}
	}
}

// reportFailure publishes a MIGRATE_FAILED event for the attempt. node names
// the machine the reporter blames, or "" when the fault cannot be localized
// (a transport error implicates either endpoint). Errors surfacing while the
// attempt is already being torn down are the abort's own debris and are not
// reported.
func (a *NLA) reportFailure(p *sim.Proc, m *migrationState, node, what string, err error) {
	if m.aborted {
		return
	}
	p.Trace("core.nla", fmt.Sprintf("%s: %s: %v", a.node.Name, what, err))
	a.client.Publish(p, ftb.Event{
		Namespace: ftb.NamespaceMVAPICH,
		Name:      eventMigrateFailed,
		Severity:  "ERROR",
		Payload:   FailurePayload{Seq: m.seq, Node: node, Reason: what + ": " + err.Error()},
	})
}

// runSource executes Phase 2 on the migration source: once the job is
// globally suspended, checkpoint every local MPI process through the
// aggregation buffer pool, stream the chunks to the target, and publish
// FTB_MIGRATE_PIIC when the target confirms complete receipt.
func (a *NLA) runSource(p *sim.Proc, m *migrationState) {
	m.suspended.Wait(p)
	if m.aborted {
		return
	}
	opts := a.fw.opts

	src := newSrcBufMgr(p, a.fw, a.node, m)
	m.srcBM = src
	if m.aborted { // torn down while the transport was being set up
		src.abort()
		return
	}
	m.qpReady.Fire()

	// Record pre-migration image identity (meta-level, no simulated cost).
	if opts.Hash {
		for _, r := range m.ranks {
			m.imageSums[r.ID()] = r.OS.Checksum()
		}
	}

	// Checkpoint all local ranks concurrently; each rank's C/R thread writes
	// its image into the shared buffer pool.
	oc := obs.Get(a.fw.C.E)
	var srcSpan obs.SpanID
	if oc != nil {
		srcSpan = oc.StartSpan(p.Now(), "src.checkpoint", a.node.Name+"/nla", m.span)
	}
	wg := sim.NewWaitGroup(a.fw.C.E)
	wg.Add(len(m.ranks))
	for _, r := range m.ranks {
		p.SpawnChild(fmt.Sprintf("core.crthread.%d", r.ID()), func(cp *sim.Proc) {
			defer wg.Done()
			var rs obs.SpanID
			if oc != nil {
				rs = oc.StartSpan(cp.Now(), fmt.Sprintf("ckpt.rank%d", r.ID()), a.node.Name+"/nla", srcSpan)
			}
			sink := src.sink(r.ID())
			info, err := blcr.Checkpoint(cp, r.OS, nil, sink, blcr.Options{Hash: opts.Hash})
			if err == nil {
				err = sink.close(cp, info.Bytes)
			}
			oc.EndSpan(cp.Now(), rs)
			if err != nil {
				a.reportFailure(cp, m, "", fmt.Sprintf("checkpoint rank %d", r.ID()), err)
				return
			}
			m.report.BytesMoved += info.Bytes
		})
	}
	wg.Wait(p)
	oc.EndSpan(p.Now(), srcSpan)
	if m.aborted {
		return
	}

	// Wait until the target confirms it holds every image.
	src.complete.Wait(p)
	if m.aborted {
		return
	}
	// All kRelease messages precede kComplete on the in-order QP (and the
	// socket path returns chunks synchronously), so any chunk still checked
	// out here is leaked for good.
	m.poolOutstanding = src.outstanding()
	m.report.Extra["chunks"] = src.ChunksSent

	// The source node is now out of the job.
	for _, r := range m.ranks {
		a.node.Procs.Remove(r.OS.PID)
	}
	m.srcVacated = true
	src.close()
	a.setState(StateInactive)
	a.client.Publish(p, ftb.Event{
		Namespace: ftb.NamespaceMVAPICH,
		Name:      ftb.EventMigratePIIC,
		Payload:   m.seq,
	})
}

// runTarget executes the receive side of Phase 2: pull chunks as they become
// ready and reassemble per-rank images (into temporary checkpoint files, or
// in memory under the memory-based restart extensions).
func (a *NLA) runTarget(p *sim.Proc, m *migrationState) {
	m.qpReady.Wait(p)
	if m.aborted {
		return
	}
	tgt := newTargetBufMgr(p, a.fw, a.node, m)
	m.tgt = tgt
	if m.aborted { // torn down while the files/pool were being set up
		tgt.abort()
		return
	}
	tgt.onFail = func(fp *sim.Proc, node, what string, err error) {
		a.reportFailure(fp, m, node, what, err)
	}
	oc := obs.Get(a.fw.C.E)
	var pullSpan obs.SpanID
	if oc != nil {
		pullSpan = oc.StartSpan(p.Now(), "tgt.pull", a.node.Name+"/nla", m.span)
		defer func() { oc.EndSpan(p.Now(), pullSpan) }()
	}
	if a.fw.opts.RestartMode == RestartPipelined {
		// On-the-fly restart: as soon as a rank's image is complete, rebuild
		// that process — Phase 3 overlaps the rest of Phase 2.
		m.pipelineDone = make(map[int]*sim.Event)
		for _, r := range m.ranks {
			m.pipelineDone[r.ID()] = sim.NewEvent(a.fw.C.E)
		}
		tgt.onRankComplete = func(rank int) {
			done := m.pipelineDone[rank]
			p.SpawnChild(fmt.Sprintf("core.otf-restart.%d", rank), func(rp *sim.Proc) {
				defer done.Fire()
				if m.aborted {
					return
				}
				if err := a.restartRank(rp, m, rank, m.tgt.stream(rank)); err != nil {
					a.reportFailure(rp, m, a.node.Name, fmt.Sprintf("pipelined restart rank %d", rank), err)
				}
			})
		}
	}
	tgt.run(p)
}

// restartRank rebuilds one migrated process from its checkpoint stream,
// verifies its identity and rebinds the MPI rank to this node.
func (a *NLA) restartRank(p *sim.Proc, m *migrationState, rank int, src blcr.Source) error {
	restored, err := blcr.Restart(p, src, a.node.Procs, blcr.RestartOptions{Verify: a.fw.opts.Hash})
	if err != nil {
		return err
	}
	if a.fw.opts.Hash && restored.Checksum() != m.imageSums[rank] {
		m.restoredOK = false
	}
	a.fw.W.Rebind(rank, a.node.Name, restored)
	return nil
}

// runRestart executes Phase 3 on the target: make the images durable (file
// mode), restart every migrated process with BLCR, rebind the MPI ranks to
// this node, and publish FTB_RESTART_DONE. Under pipelined restart the
// processes are already being rebuilt; this phase only joins them. On error,
// no DONE is published — the failure report (or the phase deadline) moves the
// Job Manager into recovery instead.
func (a *NLA) runRestart(p *sim.Proc, m *migrationState) {
	opts := a.fw.opts
	failed := false
	oc := obs.Get(a.fw.C.E)
	var rsSpan obs.SpanID
	if oc != nil {
		rsSpan = oc.StartSpan(p.Now(), "tgt.restart", a.node.Name+"/nla", m.span)
		defer func() { oc.EndSpan(p.Now(), rsSpan) }()
	}
	if opts.RestartMode == RestartPipelined {
		for _, r := range m.ranks {
			m.pipelineDone[r.ID()].Wait(p)
		}
	} else {
		wg := sim.NewWaitGroup(a.fw.C.E)
		wg.Add(len(m.ranks))
		for _, r := range m.ranks {
			p.SpawnChild(fmt.Sprintf("core.restart.%d", r.ID()), func(rp *sim.Proc) {
				defer wg.Done()
				if m.aborted {
					return
				}
				var rrs obs.SpanID
				if oc != nil {
					rrs = oc.StartSpan(rp.Now(), fmt.Sprintf("restart.rank%d", r.ID()), a.node.Name+"/nla", rsSpan)
					defer func() { oc.EndSpan(rp.Now(), rrs) }()
				}
				var srcStream blcr.Source
				if opts.RestartMode == RestartFile {
					f := m.tgt.files[r.ID()]
					// Images must be durable before the node joins.
					if err := f.Sync(rp); err != nil {
						a.reportFailure(rp, m, a.node.Name, fmt.Sprintf("sync image of rank %d", r.ID()), err)
						failed = true
						return
					}
					srcStream = blcr.FileSource{F: f}
				} else {
					srcStream = m.tgt.stream(r.ID())
				}
				if err := a.restartRank(rp, m, r.ID(), srcStream); err != nil {
					a.reportFailure(rp, m, a.node.Name, fmt.Sprintf("restart rank %d", r.ID()), err)
					failed = true
				}
			})
		}
		wg.Wait(p)
	}
	if m.aborted || failed {
		return
	}
	if opts.RestartMode == RestartFile {
		m.tgt.closeFiles()
	}
	// Every image has been consumed by a successful restart: close the
	// reclamation epoch so nodes retired during reassembly become reusable.
	payload.AdvanceEpoch()
	m.restarted.Fire()
	a.setState(StateReady)
	a.client.Publish(p, ftb.Event{
		Namespace: ftb.NamespaceMVAPICH,
		Name:      eventRestartDone,
		Payload:   m.seq,
	})
}

// ctrlMsg kinds for the buffer-manager control channel.
const (
	kChunkReady = iota
	kRelease
	kRankDone
	kComplete
)

// ctrlMsg is the control message exchanged between source and target buffer
// managers (paper section III-B: the RDMA-Read request carries both the RDMA
// information and the reassembly information).
type ctrlMsg struct {
	kind    int
	rank    int
	fileOff int64
	size    int64
	poolOff int64
	rkey    ib.RemoteKey
	total   int64
}
