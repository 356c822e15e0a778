package core

import (
	"fmt"
	"time"

	"ibmig/internal/blcr"
	"ibmig/internal/cluster"
	"ibmig/internal/ftb"
	"ibmig/internal/health"
	"ibmig/internal/metrics"
	"ibmig/internal/mpi"
	"ibmig/internal/obs"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
	"ibmig/internal/strategy"
)

// maxRestartResends bounds how often a stalled Phase 3 is retried by
// re-publishing FTB_RESTART before the migration is aborted outright.
const maxRestartResends = 2

// timeoutPayload is the MIGRATE_TIMEOUT event payload.
type timeoutPayload struct {
	Seq   int
	Phase int
}

// JobManager orchestrates migrations from the login node. All coordination
// with NLAs flows over the FTB (events FTB_MIGRATE, FTB_MIGRATE_PIIC,
// FTB_RESTART, FTB_RESTART_DONE); the MPI-rank suspension protocol stands in
// for the C/R threads' reaction to FTB_MIGRATE. The JM also watches the
// cluster and health namespaces: node deaths and failure predictions feed
// spare selection and the recovery paths (abort, spare retry, CR fallback).
type JobManager struct {
	fw     *Framework
	client *ftb.Client

	pending           []string
	completionWaiters []*sim.Event

	// unhealthy marks nodes with an outstanding failure prediction or a
	// reported fault; they are passed over during spare selection.
	unhealthy map[string]bool

	// MigrationsDone counts completed cycles; FailedTriggers counts requests
	// dropped for lack of a spare node.
	MigrationsDone int
	FailedTriggers int

	// Recovery counters.
	MigrationsAborted int // attempts torn down by fault or deadline
	SpareRetries      int // aborted migrations retried onto another spare
	CRFallbacks       int // full-job restarts from the last checkpoint
	RestartResends    int // lost FTB_RESTART events re-published

	// Strategy-layer counters.
	SpareExhaustions  int // triggers terminated for want of spares or retry budget
	ReactiveRestarts  int // autonomous full-job restarts after a node death
	ReplicaRestores   int // node deaths recovered from a staged hot replica
	ReplicasStaged    int // hot replicas staged on shadow spares
	PolicyCheckpoints int // periodic checkpoints taken by the policy loop
	CkptFailures      int // checkpoints (policy or user) that errored

	// TerminalReason records why the most recent trigger ended without a
	// completed migration (strategy.ReasonSpareExhausted / ReasonRetryBudget).
	TerminalReason string

	// JobLost is set when recovery is impossible: the source died without a
	// prior Framework.Checkpoint (or the fallback restore itself failed).
	JobLost bool

	// warns counts sensor warnings per node (AutoPolicy strategy input).
	warns map[string]int
	// shadows maps a protected node to its staged hot replica.
	shadows map[string]*replica
	// deferredDead queues node deaths that arrived while a migration or
	// checkpoint owned the suspension protocol; they are served afterwards.
	deferredDead []string
}

// replica is a hot standby image set for one protected node, staged on a
// shadow spare (the FTHP-MPI-style policy). Images are fuzzy snapshots of the
// running ranks held in the shadow's memory.
type replica struct {
	node     string // the protected primary
	host     string // the shadow spare holding the images
	images   map[int]payload.Buffer
	stagedAt sim.Time
	ready    bool
}

func newJobManager(fw *Framework) *JobManager {
	jm := &JobManager{
		fw:        fw,
		client:    fw.C.FTB.Connect(fw.C.Login.Name, "job-manager"),
		unhealthy: make(map[string]bool),
		warns:     make(map[string]int),
		shadows:   make(map[string]*replica),
	}
	sub := jm.client.Subscribe("", "") // MVAPICH protocol + cluster + health
	fw.C.E.Spawn("core.jobmanager", func(p *sim.Proc) { jm.loop(p, sub) })
	return jm
}

func (jm *JobManager) loop(p *sim.Proc, sub *ftb.Subscription) {
	for {
		ev, ok := sub.Recv(p)
		if !ok {
			return
		}
		switch {
		case ev.Namespace == cluster.NamespaceCluster && ev.Name == cluster.EventNodeDown:
			if node, isStr := ev.Payload.(string); isStr {
				jm.onNodeDown(p, node)
			}
		case ev.Namespace == health.NamespacePred && ev.Name == health.EventFailurePredicted:
			if node, isStr := ev.Payload.(string); isStr {
				jm.unhealthy[node] = true
				if jm.fw.opts.AutoPolicy {
					jm.onPredicted(p, node)
				}
			}
		case ev.Namespace == health.NamespaceIPMI && ev.Name == health.EventSensorWarn:
			if r, isReading := ev.Payload.(health.SensorReading); isReading && jm.fw.opts.AutoPolicy {
				jm.onWarn(p, r.Node)
			}
		case ev.Namespace != ftb.NamespaceMVAPICH:
			// Other namespaces are not ours.
		default:
			switch ev.Name {
			case eventMigrateRequest:
				src, isStr := ev.Payload.(string)
				if !isStr {
					continue
				}
				if jm.fw.current != nil || jm.fw.ckptActive {
					jm.pending = append(jm.pending, src)
					continue
				}
				jm.startMigration(p, src)
			case ftb.EventMigratePIIC:
				jm.onPIIC(p, ev)
			case eventRestartDone:
				jm.onRestartDone(p, ev)
			case eventMigrateFailed:
				jm.onMigrateFailed(p, ev)
			case eventMigrateTimeout:
				jm.onTimeout(p, ev)
			case eventCkptDone:
				jm.drainDeferredDead(p)
				jm.drainPending(p)
			}
		}
	}
}

// nodeUsable reports whether a node can carry migration traffic: alive with
// a working adapter.
func (jm *JobManager) nodeUsable(name string) bool {
	n := jm.fw.C.Node(name)
	return n != nil && jm.fw.C.NodeAlive(name) && !n.HCA.Failed()
}

// pickSpare selects the migration target: the first usable MIGRATION_SPARE
// NLA without an outstanding failure warning, skipping excluded nodes. If
// every candidate carries a warning, the first warned-but-usable spare is
// returned anyway — a predicted-to-fail spare still beats dropping the
// migration.
func (jm *JobManager) pickSpare(excluded map[string]bool) string {
	healthy, fallback := "", ""
	for _, nla := range jm.fw.nlaList {
		if nla.State() != StateSpare {
			continue
		}
		name := nla.node.Name
		if excluded[name] || !jm.nodeUsable(name) {
			continue
		}
		if len(jm.shadows) > 0 && jm.isShadowHost(name) {
			continue // reserved: it holds a hot replica
		}
		if len(jm.fw.W.RanksOn(name)) > 0 {
			// Already carries ranks (rebound by an earlier restore attempt
			// whose promotion never ran); its PID space is taken.
			continue
		}
		if jm.fw.opts.RestartMode == RestartFile && nla.node.FS.Disk().Failed() {
			continue
		}
		if fallback == "" {
			fallback = name
		}
		if healthy == "" && !jm.unhealthy[name] {
			healthy = name
		}
	}
	if healthy != "" {
		return healthy
	}
	return fallback
}

// isShadowHost reports whether a spare currently holds a staged replica.
func (jm *JobManager) isShadowHost(name string) bool {
	for _, sh := range jm.shadows {
		if sh.host == name {
			return true
		}
	}
	return false
}

// jmView adapts the Job Manager's state to the read-only strategy.View the
// policy layer consults. m is the aborted attempt for EvAttemptFailed events,
// nil otherwise.
type jmView struct {
	jm *JobManager
	m  *migrationState
}

func (v jmView) HasCheckpoint() bool { return v.jm.fw.ckpt != nil }

func (v jmView) SpareAvailable() bool {
	ex := make(map[string]bool)
	if v.m != nil {
		for k := range v.m.excluded {
			ex[k] = true
		}
		ex[v.m.dst] = true
	}
	return v.jm.pickSpare(ex) != ""
}

func (v jmView) SourceUsable() bool {
	if v.m == nil {
		return false
	}
	return v.jm.nodeUsable(v.m.src) && v.m.failedNode != v.m.src && !v.m.srcVacated
}

func (v jmView) HostsRanks(node string) bool { return len(v.jm.fw.W.RanksOn(node)) > 0 }

func (v jmView) WarnCount(node string) int { return v.jm.warns[node] }

func (v jmView) HasReplica(node string) bool {
	sh := v.jm.shadows[node]
	return sh != nil && sh.ready
}

func (v jmView) Retries() int {
	if v.m == nil {
		return 0
	}
	return v.m.retries
}

func (v jmView) MaxRetries() int { return v.jm.fw.opts.MaxSpareRetries }

func (jm *JobManager) view(m *migrationState) jmView { return jmView{jm: jm, m: m} }

// onPredicted serves a health-predictor failure prediction to the strategy
// (AutoPolicy only).
func (jm *JobManager) onPredicted(p *sim.Proc, node string) {
	ds := jm.fw.opts.Strategy.Decide(jm.view(nil), strategy.Event{Kind: strategy.EvPredicted, Node: node})
	jm.applyPolicyDecisions(p, node, ds)
}

// onWarn serves a sensor warning to the strategy (AutoPolicy only).
func (jm *JobManager) onWarn(p *sim.Proc, node string) {
	jm.warns[node]++
	ds := jm.fw.opts.Strategy.Decide(jm.view(nil), strategy.Event{Kind: strategy.EvWarn, Node: node})
	jm.applyPolicyDecisions(p, node, ds)
}

// applyPolicyDecisions executes the first feasible proactive decision.
func (jm *JobManager) applyPolicyDecisions(p *sim.Proc, node string, ds []strategy.Decision) {
	if jm.JobLost || jm.fw.W.Done() {
		return
	}
	for _, d := range ds {
		target := d.Node
		if target == "" {
			target = node
		}
		switch d.Kind {
		case strategy.Migrate:
			if len(jm.fw.W.RanksOn(target)) == 0 {
				continue
			}
			if jm.fw.current != nil || jm.fw.ckptActive {
				jm.pending = append(jm.pending, target)
				return
			}
			jm.startMigration(p, target)
			return
		case strategy.StageReplica:
			jm.stageReplica(p, target)
			return
		case strategy.Checkpoint:
			// Served by the periodic policy loop; nothing to do here.
			return
		}
	}
}

// stageReplica reserves a shadow spare for node and asynchronously stages a
// fuzzy snapshot of its ranks there: each rank's image is dumped (without
// suspending the job) and shipped over the fabric. The reservation is taken
// synchronously — pickSpare skips shadow hosts — and released on any error.
func (jm *JobManager) stageReplica(p *sim.Proc, node string) {
	fw := jm.fw
	if jm.shadows[node] != nil || !jm.nodeUsable(node) {
		return
	}
	ranks := fw.W.RanksOn(node)
	if len(ranks) == 0 {
		return
	}
	host := jm.pickSpare(nil)
	if host == "" {
		p.Trace("core.jm", "no spare to stage a replica of "+node)
		return
	}
	sh := &replica{node: node, host: host, images: make(map[int]payload.Buffer)}
	jm.shadows[node] = sh
	jm.ReplicasStaged++
	p.Trace("core.jm", fmt.Sprintf("staging replica of %s on %s (%d ranks)", node, host, len(ranks)))
	fw.C.E.Spawn("core.replica."+node, func(sp *sim.Proc) {
		var span obs.SpanID
		c := fw.obsC()
		if c != nil {
			span = c.StartSpan(sp.Now(), "replica.stage "+node, "jm", 0)
			defer func() { c.EndSpan(sp.Now(), span) }()
		}
		var total int64
		for _, r := range ranks {
			if jm.shadows[node] != sh || !fw.C.NodeAlive(node) {
				jm.dropShadow(node, sh)
				return
			}
			sink := &blcr.BufferSink{}
			info, err := blcr.Checkpoint(sp, r.OS, nil, sink, blcr.Options{Hash: fw.opts.Hash})
			if err != nil {
				sp.Trace("core.jm", fmt.Sprintf("replica of %s: checkpoint rank %d: %v", node, r.ID(), err))
				jm.dropShadow(node, sh)
				return
			}
			sh.images[r.ID()] = sink.Buf
			total += info.Bytes
		}
		if err := fw.C.Fabric.Transfer(sp, node, host, total); err != nil {
			sp.Trace("core.jm", fmt.Sprintf("replica of %s: transfer to %s: %v", node, host, err))
			jm.dropShadow(node, sh)
			return
		}
		sh.stagedAt = sp.Now()
		sh.ready = true
		sp.Trace("core.jm", fmt.Sprintf("replica of %s ready on %s (%d bytes)", node, host, total))
	})
}

// dropShadow releases one reservation if it still belongs to sh.
func (jm *JobManager) dropShadow(node string, sh *replica) {
	if jm.shadows[node] == sh {
		delete(jm.shadows, node)
	}
}

// dropShadowsOn forgets replicas invalidated by a node death: those
// protecting the dead node are moot only once restored, but those HOSTED on
// the dead node are gone, and a dead shadow host frees its reservation.
func (jm *JobManager) dropShadowsOn(node string) {
	for protected, sh := range jm.shadows {
		if sh.host == node {
			delete(jm.shadows, protected)
		}
	}
}

// startMigration runs Phase 1 and kicks off Phase 2 (paper Fig. 2).
func (jm *JobManager) startMigration(p *sim.Proc, src string) {
	fw := jm.fw
	if jm.JobLost {
		// The job sits in a frozen suspension; a new migration could never
		// even stall it.
		jm.FailedTriggers++
		jm.fireCompletions()
		return
	}
	dst := jm.pickSpare(nil)
	srcOK := fw.nlas[src] != nil && fw.nlas[src].State() == StateReady && jm.fw.C.NodeAlive(src)
	if dst == "" || !srcOK {
		jm.FailedTriggers++
		p.Trace("core.jm", fmt.Sprintf("migration of %s dropped (no spare or bad source)", src))
		jm.fireCompletions()
		return
	}
	ranks := fw.W.RanksOn(src)
	if len(ranks) == 0 {
		jm.FailedTriggers++
		jm.fireCompletions()
		return
	}
	fw.migrationSeq++
	m := &migrationState{
		seq:        fw.migrationSeq,
		src:        src,
		dst:        dst,
		ranks:      ranks,
		suspended:  sim.NewEvent(fw.C.E),
		qpReady:    sim.NewEvent(fw.C.E),
		restarted:  sim.NewEvent(fw.C.E),
		finished:   sim.NewEvent(fw.C.E),
		imageSums:  make(map[int]uint64),
		restoredOK: true,
		report:     metrics.NewReport(fmt.Sprintf("migration#%d %s->%s", fw.migrationSeq, src, dst)),
		phase:      1,
		excluded:   make(map[string]bool),
		startedAt:  p.Now(),

		poolOutstanding: -1,
	}
	m.watch = metrics.NewStopwatch(m.report, p.Now())
	fw.current = m
	if c := fw.obsC(); c != nil {
		m.span = c.StartSpan(p.Now(), fmt.Sprintf("migration#%d %s->%s", m.seq, src, dst), "jm", 0)
		c.SpanAttr(m.span, "ranks", fmt.Sprint(len(ranks)))
		m.beginPhase(c, p.Now(), "phase1.stall")
	}
	p.Trace("core.jm", fmt.Sprintf("FTB_MIGRATE %s -> %s (%d ranks)", src, dst, len(ranks)))
	jm.client.Publish(p, ftb.Event{
		Namespace: ftb.NamespaceMVAPICH,
		Name:      ftb.EventMigrate,
		Payload:   MigratePayload{Source: src, Target: dst, Seq: m.seq},
	})
	jm.watchAttempt(m)

	// Phase 1 — Job Stall: every MPI process suspends communication, drains
	// in-flight messages and tears down its endpoints (the C/R threads react
	// to FTB_MIGRATE; the mpi suspension protocol is that reaction).
	m.sus = fw.W.BeginSuspend()
	m.sus.WaitAllDrained(p)
	m.sus.CompleteTeardown()
	m.sus.WaitAllSuspended(p)
	m.watch.Lap(metrics.PhaseStall, p.Now())
	fw.notifyPhase(p, m.seq, 1)
	m.beginPhase(fw.obsC(), p.Now(), "phase2.migrate")
	m.suspended.Fire() // the source NLA may now checkpoint
	m.phase = 2
	fw.notifyPhase(p, m.seq, 2)
}

// onPIIC handles the end of Phase 2: adjust the mpispawn tree for the
// topology change and broadcast FTB_RESTART with the migrated rank list.
func (jm *JobManager) onPIIC(p *sim.Proc, ev ftb.Event) {
	m := jm.fw.current
	seq, isInt := ev.Payload.(int)
	if m == nil || !isInt || seq != m.seq || m.aborted {
		return
	}
	m.watch.Lap(metrics.PhaseMigrate, p.Now())
	m.piicAt = p.Now()
	m.beginPhase(jm.fw.obsC(), p.Now(), "phase3.restart")
	m.phase = 3
	// Re-homing the target under the login root of the (ScELA-style)
	// launch tree, and dropping the source from it, is a millisecond of
	// bookkeeping.
	p.Sleep(time.Millisecond)
	jm.fw.notifyPhase(p, m.seq, 3)
	jm.publishRestart(p, m)
}

func (jm *JobManager) publishRestart(p *sim.Proc, m *migrationState) {
	ids := make([]int, len(m.ranks))
	for i, r := range m.ranks {
		ids[i] = r.ID()
	}
	jm.client.Publish(p, ftb.Event{
		Namespace: ftb.NamespaceMVAPICH,
		Name:      ftb.EventRestart,
		Payload:   RestartPayload{Target: m.dst, Ranks: ids, Seq: m.seq},
	})
}

// onRestartDone handles the end of Phase 3 and runs Phase 4 (Resume).
func (jm *JobManager) onRestartDone(p *sim.Proc, ev ftb.Event) {
	m := jm.fw.current
	seq, isInt := ev.Payload.(int)
	if m == nil || !isInt || seq != m.seq || m.aborted {
		return
	}
	m.watch.Lap(metrics.PhaseRestart, p.Now())
	m.beginPhase(jm.fw.obsC(), p.Now(), "phase4.resume")
	m.phase = 4
	jm.fw.notifyPhase(p, m.seq, 4)
	if !jm.nodeUsable(m.dst) {
		// The target died between restarting the processes and the resume:
		// the new incarnations are gone with it.
		jm.recover(p, m, "target lost before resume")
		return
	}
	// Phase 4 — Resume: all ranks re-establish endpoints and leave the
	// migration barrier.
	m.sus.Resume()
	m.sus.WaitAllResumed(p)
	m.watch.Lap(metrics.PhaseResume, p.Now())
	m.endAttempt(jm.fw.obsC(), p.Now())

	jm.fw.lastVerified = m.restoredOK
	p.Trace("core.jm", fmt.Sprintf("migration #%d complete: %s", m.seq, m.report))
	jm.finishCycle(p, m, true)
}

// onNodeDown handles a cluster-monitor NODE_DOWN event. A death hitting the
// current migration's endpoints feeds its recovery; any other death of a
// rank-hosting node is, under AutoPolicy, served to the strategy (restore
// from replica, restart from checkpoint, or lose the job) — deferred while a
// migration or checkpoint owns the suspension protocol.
func (jm *JobManager) onNodeDown(p *sim.Proc, node string) {
	jm.unhealthy[node] = true
	if nla := jm.fw.nlas[node]; nla != nil && nla.State() != StateInactive {
		nla.setState(StateInactive)
	}
	if m := jm.fw.current; m != nil && !m.aborted {
		switch node {
		case m.dst:
			jm.recover(p, m, "target node down")
			return
		case m.src:
			if !m.srcVacated {
				jm.recover(p, m, "source node down")
				return
			}
			// The source already left the job; its death is moot.
		}
	}
	if !jm.fw.opts.AutoPolicy || jm.JobLost || jm.fw.W.Done() {
		return
	}
	jm.dropShadowsOn(node)
	if len(jm.fw.W.RanksOn(node)) == 0 {
		return
	}
	if jm.fw.current != nil || jm.fw.ckptActive {
		jm.deferredDead = append(jm.deferredDead, node)
		return
	}
	jm.reactTo(p, node)
}

// drainDeferredDead serves node deaths queued while the suspension protocol
// was owned by a migration or checkpoint.
func (jm *JobManager) drainDeferredDead(p *sim.Proc) {
	for len(jm.deferredDead) > 0 {
		if jm.fw.current != nil || jm.fw.ckptActive || jm.JobLost || jm.fw.W.Done() {
			return
		}
		node := jm.deferredDead[0]
		jm.deferredDead = jm.deferredDead[1:]
		if len(jm.fw.W.RanksOn(node)) > 0 && !jm.nodeUsable(node) {
			jm.reactTo(p, node)
		}
	}
}

// reactTo recovers from the death of a rank-hosting node outside any
// migration: suspend the survivors, apply the strategy's decisions in
// preference order (replica restore, then checkpoint restart, as offered),
// and resume. When nothing works the job is lost and stays frozen.
func (jm *JobManager) reactTo(p *sim.Proc, node string) {
	fw := jm.fw
	ds := fw.opts.Strategy.Decide(jm.view(nil), strategy.Event{Kind: strategy.EvNodeDown, Node: node})
	if len(ds) == 0 {
		return
	}
	// The recovery owns the suspension protocol until it resolves; the
	// policy-checkpoint loop (and any Checkpoint caller) must stand down.
	fw.recovering = true
	defer func() { fw.recovering = false }()
	start := p.Now()
	var span obs.SpanID
	c := fw.obsC()
	if c != nil {
		span = c.StartSpan(start, "recovery."+node, "jm", 0)
	}
	p.Trace("core.jm", fmt.Sprintf("reacting to death of %s (%d ranks)", node, len(fw.W.RanksOn(node))))
	sus := fw.W.BeginSuspend()
	sus.WaitAllDrained(p)
	sus.CompleteTeardown()
	sus.WaitAllSuspended(p)
	for _, d := range ds {
		switch d.Kind {
		case strategy.RestoreReplica:
			if rework, ok := jm.tryRestoreReplica(p, node); ok {
				jm.finishRecovery(p, sus, c, span, "replica", node, start, rework)
				return
			}
		case strategy.RestartCR:
			if rework, ok := jm.tryReactiveRestart(p); ok {
				jm.finishRecovery(p, sus, c, span, "reactive-cr", node, start, rework)
				return
			}
		case strategy.Abandon:
			jm.loseJob(p, c, span, node, start, "strategy abandoned after the death of "+node)
			return
		}
	}
	jm.loseJob(p, c, span, node, start, "no recovery path for the death of "+node)
}

// finishRecovery promotes the hosting nodes, resumes the job and records the
// action.
func (jm *JobManager) finishRecovery(p *sim.Proc, sus *mpi.Suspension, c *obs.Collector, span obs.SpanID, kind, node string, start sim.Time, rework sim.Duration) {
	jm.promoteHosts()
	sus.Resume()
	sus.WaitAllResumed(p)
	end := p.Now()
	if c != nil {
		c.SpanAttr(span, "kind", kind)
		c.EndSpan(end, span)
	}
	p.Trace("core.jm", fmt.Sprintf("recovered from death of %s via %s (rework %v)", node, kind, rework))
	jm.fw.Recoveries = append(jm.fw.Recoveries, RecoveryRecord{
		Kind: kind, Node: node, Start: start, End: end, Rework: rework, Ok: true,
	})
	jm.drainDeferredDead(p)
	jm.drainPending(p)
}

// loseJob abandons the job outside any migration: the suspension stays
// frozen (there is nothing consistent to resume into) and every outstanding
// trigger completion fires so waiters are not stranded.
func (jm *JobManager) loseJob(p *sim.Proc, c *obs.Collector, span obs.SpanID, node string, start sim.Time, reason string) {
	jm.JobLost = true
	end := p.Now()
	if c != nil {
		c.SpanAttr(span, "job_lost", reason)
		c.EndSpan(end, span)
	}
	p.Trace("core.jm", "job lost — "+reason)
	jm.fw.Recoveries = append(jm.fw.Recoveries, RecoveryRecord{
		Kind: "abandon", Node: node, Start: start, End: end, Ok: false,
	})
	for len(jm.completionWaiters) > 0 {
		jm.fireCompletions()
	}
	jm.pending = nil
	jm.deferredDead = nil
}

// tryReactiveRestart restores the whole job from the last checkpoint, ranks
// of unusable nodes placed onto fresh spares. The job must be suspended.
func (jm *JobManager) tryReactiveRestart(p *sim.Proc) (sim.Duration, bool) {
	fw := jm.fw
	if fw.ckpt == nil {
		return 0, false
	}
	if !jm.restoreWithRetry(p, nil) {
		return 0, false
	}
	jm.ReactiveRestarts++
	return p.Now().Sub(fw.ckptTakenAt), true
}

// restoreWithRetry drives Checkpointer.RestartInPlace until it sticks: a
// destination can die while images stream in (the restore windows are long),
// in which case the placement is recomputed against the now-smaller cluster
// and the restore redone from the persistent images, bounded by the spare
// retry budget. used seeds the placement's exclusion set. Returns false when
// the budget or the spare pool runs out.
func (jm *JobManager) restoreWithRetry(p *sim.Proc, used map[string]bool) bool {
	for attempt := 0; ; attempt++ {
		seed := make(map[string]bool, len(used))
		for k := range used {
			seed[k] = true
		}
		placement, ok := jm.placeLostRanks(seed)
		if !ok {
			return false
		}
		err := jm.fw.ckpt.RestartInPlace(p, placement)
		if err == nil {
			return true
		}
		p.Trace("core.jm", fmt.Sprintf("restore attempt %d failed: %v", attempt+1, err))
		if attempt >= jm.fw.opts.MaxSpareRetries {
			return false
		}
	}
}

// tryRestoreReplica restarts a dead node's ranks from their staged hot
// replica on the shadow spare. The job must be suspended. A partial failure
// leaves state for the checkpoint fallthrough to overwrite wholesale.
func (jm *JobManager) tryRestoreReplica(p *sim.Proc, node string) (sim.Duration, bool) {
	fw := jm.fw
	sh := jm.shadows[node]
	if sh == nil || !sh.ready || !jm.nodeUsable(sh.host) {
		return 0, false
	}
	host := fw.C.Node(sh.host)
	for _, r := range fw.W.RanksOn(node) {
		img, have := sh.images[r.ID()]
		if !have {
			delete(jm.shadows, node)
			return 0, false
		}
		if n := fw.C.Node(r.Node()); n != nil {
			n.Procs.Remove(r.OS.PID)
		}
		restored, err := blcr.Restart(p, &blcr.BufferSource{Buf: img}, host.Procs, blcr.RestartOptions{Verify: fw.opts.Hash})
		if err != nil {
			p.Trace("core.jm", fmt.Sprintf("replica restore of rank %d failed: %v", r.ID(), err))
			delete(jm.shadows, node)
			return 0, false
		}
		fw.W.Rebind(r.ID(), sh.host, restored)
	}
	rework := p.Now().Sub(sh.stagedAt)
	delete(jm.shadows, node)
	jm.ReplicaRestores++
	return rework, true
}

// placeLostRanks maps every rank on an unusable node to a fresh spare (1:1
// per lost node), reporting failure when the pool runs dry. used seeds the
// exclusion set and accumulates the picks.
func (jm *JobManager) placeLostRanks(used map[string]bool) (map[int]string, bool) {
	if used == nil {
		used = make(map[string]bool)
	}
	placement := make(map[int]string)
	spareFor := make(map[string]string)
	for _, r := range jm.fw.W.Ranks() {
		node := r.Node()
		if jm.nodeUsable(node) {
			continue
		}
		sp, have := spareFor[node]
		if !have {
			sp = jm.pickSpare(used)
			if sp == "" {
				return nil, false
			}
			spareFor[node] = sp
			used[sp] = true
		}
		placement[r.ID()] = sp
	}
	return placement, true
}

// promoteHosts marks every node hosting ranks as an active primary.
func (jm *JobManager) promoteHosts() {
	hosts := make(map[string]bool)
	for _, r := range jm.fw.W.Ranks() {
		hosts[r.Node()] = true
	}
	for _, nla := range jm.fw.nlaList {
		if hosts[nla.node.Name] && nla.State() != StateReady {
			nla.setState(StateReady)
		}
	}
}

// onMigrateFailed handles an NLA's error report for the current attempt.
func (jm *JobManager) onMigrateFailed(p *sim.Proc, ev ftb.Event) {
	pl, isPl := ev.Payload.(FailurePayload)
	m := jm.fw.current
	if !isPl || m == nil || pl.Seq != m.seq || m.aborted {
		return
	}
	if pl.Node != "" {
		jm.unhealthy[pl.Node] = true
		m.failedNode = pl.Node
	}
	jm.recover(p, m, "failure report: "+pl.Reason)
}

// onTimeout handles a watchdog's phase-deadline report.
func (jm *JobManager) onTimeout(p *sim.Proc, ev ftb.Event) {
	pl, isPl := ev.Payload.(timeoutPayload)
	m := jm.fw.current
	if !isPl || m == nil || pl.Seq != m.seq || m.aborted || m.phase != pl.Phase {
		return
	}
	jm.recover(p, m, fmt.Sprintf("phase %d deadline exceeded", pl.Phase))
}

// watchAttempt guards one migration attempt with the per-phase deadline: if
// the attempt sits in the same phase for a full PhaseDeadline, the watchdog
// reports a MIGRATE_TIMEOUT and the JM recovers. Deadlines run entirely on
// the sim clock, so a dead node stalls the job for bounded — and
// deterministic — time.
func (jm *JobManager) watchAttempt(m *migrationState) {
	fw := jm.fw
	fw.C.E.Spawn(fmt.Sprintf("core.jm.watchdog.%d", m.seq), func(p *sim.Proc) {
		for {
			phase := m.phase
			if m.finished.WaitTimeout(p, fw.opts.PhaseDeadline) {
				return
			}
			if fw.current != m || m.aborted {
				return
			}
			if m.phase == phase {
				p.Trace("core.jm", fmt.Sprintf("migration #%d stalled in phase %d", m.seq, phase))
				jm.client.Publish(p, ftb.Event{
					Namespace: ftb.NamespaceMVAPICH,
					Name:      eventMigrateTimeout,
					Payload:   timeoutPayload{Seq: m.seq, Phase: phase},
				})
				return
			}
		}
	})
}

// recover is the failure decision tree for the current attempt:
//
//  1. Stalled Phase 3 with a healthy target and vacated source — the
//     FTB_RESTART (or its DONE) was lost: re-publish it, bounded times.
//  2. Otherwise abort the attempt: release the buffer pool, deregister MRs,
//     close QPs, discard partial images, and retire unusable nodes' NLAs.
//  3. Consult the strategy (EvAttemptFailed) and apply its decisions in
//     preference order, falling through when one is infeasible: retry onto
//     the next usable spare (bounded by MaxSpareRetries, paced by
//     RetryBackoff), resume in place, restore from the last checkpoint, or
//     abandon. Under the default ProactiveMigrate strategy this reproduces
//     the historical tree exactly: spare retry while the source is healthy,
//     resume in place when spares run out, CR fallback when the source is
//     gone.
func (jm *JobManager) recover(p *sim.Proc, m *migrationState, reason string) {
	fw := jm.fw
	if fw.current != m || m.aborted {
		return
	}
	p.Trace("core.jm", fmt.Sprintf("migration #%d recovery (phase %d): %s", m.seq, m.phase, reason))
	if m.phase == 3 && m.srcVacated && jm.nodeUsable(m.dst) && m.failedNode != m.dst &&
		m.restartResends < maxRestartResends {
		m.restartResends++
		jm.RestartResends++
		m.report.Extra["restart_resends"]++
		p.Trace("core.jm", fmt.Sprintf("migration #%d: re-publishing FTB_RESTART", m.seq))
		jm.publishRestart(p, m)
		jm.watchAttempt(m)
		return
	}
	m.aborted = true
	jm.MigrationsAborted++
	m.report.Extra["aborts"]++
	if c := fw.obsC(); c != nil {
		m.beginPhase(c, p.Now(), "recover")
		c.SpanAttr(m.phaseSpan, "reason", reason)
	}
	m.abortTeardown()
	for _, nla := range fw.nlaList {
		if nla.State() != StateInactive && !jm.nodeUsable(nla.node.Name) {
			nla.setState(StateInactive)
		}
	}
	ds := fw.opts.Strategy.Decide(jm.view(m), strategy.Event{
		Kind:   strategy.EvAttemptFailed,
		Node:   m.failedNode,
		Seq:    m.seq,
		Phase:  m.phase,
		Reason: reason,
	})
	for _, d := range ds {
		switch d.Kind {
		case strategy.RetrySpare:
			m.excluded[m.dst] = true
			dst := jm.pickSpare(m.excluded)
			if dst == "" {
				continue // no spare after all; fall through
			}
			jm.SpareRetries++
			m.report.Extra["spare_retries"]++
			if delay := fw.opts.RetryBackoff.Delay(m.retries + 1); delay > 0 {
				p.Trace("core.jm", fmt.Sprintf("migration #%d: retry backoff %v", m.seq, delay))
				p.Sleep(delay)
			}
			jm.startRetry(p, m, dst)
			return
		case strategy.ResumeInPlace:
			if d.Reason != "" {
				jm.SpareExhaustions++
				jm.TerminalReason = d.Reason
				p.Trace("core.jm", fmt.Sprintf("migration #%d: %s, resuming in place", m.seq, d.Reason))
			} else {
				p.Trace("core.jm", fmt.Sprintf("migration #%d: resuming in place", m.seq))
			}
			jm.resumeInPlace(p, m)
			return
		case strategy.RestartCR:
			jm.crFallback(p, m)
			return
		case strategy.Abandon:
			jm.abandon(p, m, "strategy abandoned: "+reason)
			return
		}
	}
	// A strategy returning nothing applicable still must not leave the job
	// frozen: the CR fallback abandons cleanly when no checkpoint exists.
	jm.crFallback(p, m)
}

// startRetry launches a fresh attempt of an aborted migration onto dst. The
// job is still globally suspended from the aborted attempt, so the new
// attempt shares its suspension and starts directly at Phase 2.
func (jm *JobManager) startRetry(p *sim.Proc, prev *migrationState, dst string) {
	fw := jm.fw
	fw.migrationSeq++
	m := &migrationState{
		seq:        fw.migrationSeq,
		src:        prev.src,
		dst:        dst,
		ranks:      prev.ranks,
		sus:        prev.sus,
		suspended:  sim.NewEvent(fw.C.E),
		qpReady:    sim.NewEvent(fw.C.E),
		restarted:  sim.NewEvent(fw.C.E),
		finished:   sim.NewEvent(fw.C.E),
		imageSums:  prev.imageSums,
		restoredOK: true,
		report:     prev.report,
		watch:      prev.watch,
		phase:      2,
		excluded:   prev.excluded,
		retries:    prev.retries + 1,
		startedAt:  prev.startedAt,

		poolOutstanding: -1,
	}
	fw.recordAttempt(prev, false)
	m.report.Label += fmt.Sprintf(" retry->%s", dst)
	fw.current = m
	if c := fw.obsC(); c != nil {
		prev.endAttempt(c, p.Now())
		m.span = c.StartSpan(p.Now(), fmt.Sprintf("migration#%d %s->%s (retry)", m.seq, m.src, dst), "jm", 0)
		m.beginPhase(c, p.Now(), "phase2.migrate")
	}
	m.suspended.Fire() // Phase 1 already holds from the previous attempt
	p.Trace("core.jm", fmt.Sprintf("FTB_MIGRATE retry %s -> %s (seq %d)", m.src, dst, m.seq))
	jm.client.Publish(p, ftb.Event{
		Namespace: ftb.NamespaceMVAPICH,
		Name:      ftb.EventMigrate,
		Payload:   MigratePayload{Source: m.src, Target: dst, Seq: m.seq},
	})
	fw.notifyPhase(p, m.seq, 2)
	jm.watchAttempt(m)
}

// resumeInPlace abandons an aborted migration whose source is intact: the
// suspension is lifted and the job continues where it was.
func (jm *JobManager) resumeInPlace(p *sim.Proc, m *migrationState) {
	m.watch.Lap("Aborted", p.Now())
	m.beginPhase(jm.fw.obsC(), p.Now(), "resume-in-place")
	m.sus.Resume()
	m.sus.WaitAllResumed(p)
	m.watch.Lap(metrics.PhaseResume, p.Now())
	m.endAttempt(jm.fw.obsC(), p.Now())
	// The processes never moved; the original images are intact.
	jm.fw.lastVerified = true
	jm.fw.Recoveries = append(jm.fw.Recoveries, RecoveryRecord{
		Kind: "resume-in-place", Node: m.src, Start: m.startedAt, End: p.Now(), Ok: true,
	})
	jm.finishCycle(p, m, false)
}

// crFallback restores the whole job from the last Framework.Checkpoint: the
// migration lost the race against the failure it was trying to outrun. Ranks
// whose node is gone restore onto fresh spares (1:1 per lost node); everyone
// else restores in place. Without a prior checkpoint the job is lost.
func (jm *JobManager) crFallback(p *sim.Proc, m *migrationState) {
	fw := jm.fw
	jm.CRFallbacks++
	m.report.Extra["cr_fallbacks"]++
	if fw.ckpt == nil {
		jm.abandon(p, m, "source lost and no checkpoint exists")
		return
	}
	used := make(map[string]bool)
	for k := range m.excluded {
		used[k] = true
	}
	p.Trace("core.jm", fmt.Sprintf("migration #%d: CR fallback", m.seq))
	m.beginPhase(fw.obsC(), p.Now(), "cr-fallback")
	if !jm.restoreWithRetry(p, used) {
		jm.abandon(p, m, "CR fallback failed: spares or retries exhausted")
		return
	}
	// Every node hosting ranks again is an active primary.
	jm.promoteHosts()
	m.watch.Lap("CR Fallback", p.Now())
	m.sus.Resume()
	m.sus.WaitAllResumed(p)
	m.watch.Lap(metrics.PhaseResume, p.Now())
	m.endAttempt(fw.obsC(), p.Now())
	jm.fw.lastVerified = fw.ckpt.Verified
	fw.Recoveries = append(fw.Recoveries, RecoveryRecord{
		Kind: "cr-fallback", Node: m.src, Start: m.startedAt, End: p.Now(),
		Rework: p.Now().Sub(fw.ckptTakenAt), Ok: true,
	})
	jm.finishCycle(p, m, false)
}

// abandon gives up on the job: recovery is impossible. The suspension is NOT
// lifted (there is nothing consistent to resume into); the job stays frozen
// and JobLost records why.
func (jm *JobManager) abandon(p *sim.Proc, m *migrationState, reason string) {
	jm.JobLost = true
	if c := jm.fw.obsC(); c != nil {
		c.SpanAttr(m.span, "job_lost", reason)
		m.endAttempt(c, p.Now())
	}
	p.Trace("core.jm", fmt.Sprintf("migration #%d: job lost — %s", m.seq, reason))
	jm.fw.recordAttempt(m, false)
	jm.fw.Reports = append(jm.fw.Reports, m.report)
	jm.fw.current = nil
	jm.fw.Recoveries = append(jm.fw.Recoveries, RecoveryRecord{
		Kind: "abandon", Node: m.src, Start: m.startedAt, End: p.Now(), Ok: false,
	})
	m.finished.Fire()
	for len(jm.completionWaiters) > 0 {
		jm.fireCompletions()
	}
	jm.pending = nil
	jm.deferredDead = nil
}

// finishCycle closes out a migration cycle (successful or recovered).
func (jm *JobManager) finishCycle(p *sim.Proc, m *migrationState, completed bool) {
	fw := jm.fw
	fw.recordAttempt(m, completed)
	fw.Reports = append(fw.Reports, m.report)
	fw.current = nil
	if completed {
		jm.MigrationsDone++
		fw.Recoveries = append(fw.Recoveries, RecoveryRecord{
			Kind: "migrate", Node: m.src, Start: m.startedAt, End: p.Now(), Ok: true,
		})
	}
	m.finished.Fire()
	jm.fireCompletions()
	jm.drainDeferredDead(p)
	jm.drainPending(p)
}

func (jm *JobManager) drainPending(p *sim.Proc) {
	if jm.fw.current != nil || jm.fw.ckptActive || len(jm.pending) == 0 {
		return
	}
	next := jm.pending[0]
	jm.pending = jm.pending[1:]
	jm.startMigration(p, next)
}

// fireCompletions fires the oldest outstanding trigger's completion event
// (requests are served FIFO, so completions map FIFO too).
func (jm *JobManager) fireCompletions() {
	if len(jm.completionWaiters) == 0 {
		return
	}
	jm.completionWaiters[0].Fire()
	jm.completionWaiters = jm.completionWaiters[1:]
}
