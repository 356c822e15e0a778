// Package core implements the paper's contribution: the Job Migration
// Framework for MPI over InfiniBand.
//
// Components (paper Fig. 1):
//
//   - Job Manager (login node): launches Node Launch Agents on primary and
//     spare nodes, subscribes to the FTB, and orchestrates migrations.
//   - Node Launch Agent (NLA, every compute/spare node): state machine
//     MIGRATION_READY / MIGRATION_SPARE / MIGRATION_INACTIVE; executes the
//     source side (checkpoint + RDMA transfer) and target side (reassembly +
//     restart) of a migration.
//   - C/R threads: realized by the mpi package's suspension protocol.
//   - Migration Trigger: user request or health-predictor event.
//
// Migration cycle (paper Fig. 2):
//
//	Phase 1  Job Stall      FTB_MIGRATE published; all ranks drain in-flight
//	                        messages and tear down endpoints.
//	Phase 2  Job Migration  ranks on the source node are checkpointed through
//	                        an aggregation buffer pool; the target pulls
//	                        chunks with RDMA Read; FTB_MIGRATE_PIIC ends it.
//	Phase 3  Restart        FTB_RESTART; the target NLA rebuilds the process
//	                        images (from temporary files, or directly from
//	                        memory with the memory-based restart extension).
//	Phase 4  Resume         endpoints are re-established; the job continues.
package core

import (
	"fmt"
	"time"

	"ibmig/internal/calib"
	"ibmig/internal/cluster"
	"ibmig/internal/cr"
	"ibmig/internal/ftb"
	"ibmig/internal/ib"
	"ibmig/internal/metrics"
	"ibmig/internal/mpi"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/proc"
	"ibmig/internal/sim"
	"ibmig/internal/strategy"
)

// RestartMode selects how migrated processes are rebuilt on the target.
type RestartMode int

// Restart modes.
const (
	// RestartFile is the paper's implemented design: chunks are reassembled
	// into temporary checkpoint files on the target's local file system and
	// BLCR restarts from those files (the cost that dominates Phase 3).
	RestartFile RestartMode = iota
	// RestartMemory is the paper's future-work extension: images are
	// reassembled in memory and processes restart without touching the disk.
	RestartMemory
	// RestartPipelined is the full version of the future work ("restarting
	// the processes on-the-fly as the process image data arrives at the
	// buffer pool"): each process restarts from memory the moment its last
	// chunk lands, overlapping Phase 3 with the remainder of Phase 2.
	RestartPipelined
)

// Transport selects how process images move to the spare node.
type Transport int

// Transports.
const (
	// TransportRDMA is the paper's design: the target pulls full chunks with
	// RDMA Read over InfiniBand.
	TransportRDMA Transport = iota
	// TransportSocket is the staging baseline the paper argues against:
	// chunks are pushed through a TCP socket over IPoIB, paying the
	// memory-copy based socket protocol stack.
	TransportSocket
)

// Options tune the framework.
type Options struct {
	BufferPoolBytes int64 // default 10 MB (paper's setting)
	ChunkBytes      int64 // default 1 MB (paper's setting)
	RestartMode     RestartMode
	Transport       Transport
	// Hash enables end-to-end image checksums (verified at restart).
	Hash bool
	// PhaseDeadline bounds how long a migration may sit in one phase without
	// progress before the Job Manager aborts it and recovers (sim time).
	// Default 2 minutes — generous against the paper's multi-second phases
	// but finite, so a dead node can never hang the job.
	PhaseDeadline sim.Duration

	// Strategy selects the fault-tolerance policy the Job Manager consults
	// (default strategy.ProactiveMigrate — the paper's behaviour, exactly).
	Strategy strategy.Strategy
	// AutoPolicy lets the Job Manager act on health warnings, failure
	// predictions and node deaths autonomously (migrate, stage replicas,
	// restart from checkpoint) and switches the MPI runtime into its
	// fault-tolerant send mode. Off, the JM only reacts to faults hitting an
	// explicitly triggered migration — the historical behaviour.
	AutoPolicy bool
	// CkptInterval is the periodic checkpoint cadence under AutoPolicy, for
	// strategies that checkpoint (0 = no periodic checkpoints).
	CkptInterval sim.Duration
}

func (o Options) withDefaults() Options {
	if o.BufferPoolBytes == 0 {
		o.BufferPoolBytes = calib.DefaultBufferPool
	}
	if o.ChunkBytes == 0 {
		o.ChunkBytes = calib.DefaultChunkSize
	}
	if o.ChunkBytes > o.BufferPoolBytes {
		o.ChunkBytes = o.BufferPoolBytes
	}
	if o.PhaseDeadline == 0 {
		o.PhaseDeadline = 2 * time.Minute
	}
	if o.Strategy == nil {
		o.Strategy = strategy.ProactiveMigrate{}
	}
	return o
}

// RecoveryRecord is one recovery action the framework carried out — the raw
// material for MTTR and goodput accounting (exp.RunCampaign). Start..End
// spans the action (for a migration, trigger to Phase 4 exit); Rework is the
// recomputation debt a checkpoint- or replica-based restore incurred (time
// since the restored image was taken); Ok is false when the job was lost.
type RecoveryRecord struct {
	Kind   string // "migrate", "resume-in-place", "cr-fallback", "reactive-cr", "replica", "abandon"
	Node   string
	Start  sim.Time
	End    sim.Time
	Rework sim.Duration
	Ok     bool
}

// Framework is a launched MPI job under migration protection.
type Framework struct {
	C    *cluster.Cluster
	W    *mpi.World
	opts Options

	jm      *JobManager
	nlas    map[string]*NLA
	nlaList []*NLA

	trigger *ftb.Client

	// Reports collects one phase report per completed migration.
	Reports []*metrics.Report

	// Attempts records one entry per migration attempt (by sequence number),
	// including attempts that were aborted and retried — the probe surface the
	// internal/check invariants are evaluated against.
	Attempts []AttemptRecord

	// lastVerified records whether the most recent migration's restored
	// images were bit-identical to the checkpointed ones (Hash mode).
	lastVerified bool

	migrationSeq int
	current      *migrationState

	// ckpt is the last full-job checkpoint (taken via Checkpoint) — the
	// recovery image the CR-fallback path restores from. ckptTakenAt dates
	// it, for rework accounting on restore.
	ckpt        *cr.Runner
	ckptActive  bool
	ckptTakenAt sim.Time
	recovering  bool // a reactive recovery currently owns the suspension

	// Recoveries logs every recovery action taken, in order (see
	// RecoveryRecord).
	Recoveries []RecoveryRecord

	// phaseHooks run synchronously in the JM process at each phase entry of
	// each migration attempt — the anchor fault injection hangs off.
	phaseHooks []func(p *sim.Proc, seq, phase int)
}

// OnPhase registers a hook called at the entry of each migration phase
// (1..4), in the Job Manager's process, with the migration sequence number.
// Phase 1 anchors at the globally-suspended point (before the source may
// checkpoint): earlier the application is still communicating and a fault
// would take the whole job down, which is outside this framework's scope.
func (fw *Framework) OnPhase(fn func(p *sim.Proc, seq, phase int)) {
	fw.phaseHooks = append(fw.phaseHooks, fn)
}

func (fw *Framework) notifyPhase(p *sim.Proc, seq, phase int) {
	for _, fn := range fw.phaseHooks {
		fn(p, seq, phase)
	}
}

// obsC returns the engine's observability collector (nil when off).
func (fw *Framework) obsC() *obs.Collector { return obs.Get(fw.C.E) }

// beginPhase closes the attempt's current phase span and opens the named one
// as a child of the attempt span. No-op when observability is off.
func (m *migrationState) beginPhase(c *obs.Collector, t sim.Time, name string) {
	if c == nil {
		return
	}
	c.EndSpan(t, m.phaseSpan)
	m.phaseSpan = c.StartSpan(t, name, "jm", m.span)
}

// endAttempt closes the open phase span and the attempt span.
func (m *migrationState) endAttempt(c *obs.Collector, t sim.Time) {
	if c == nil {
		return
	}
	c.EndSpan(t, m.phaseSpan)
	m.phaseSpan = 0
	c.EndSpan(t, m.span)
}

// AttemptRecord is the per-attempt protocol outcome the framework exposes for
// invariant checking (internal/check): exactly one record is appended per
// migration sequence number, when the attempt reaches a terminal state
// (completed, aborted, or the job abandoned).
type AttemptRecord struct {
	Seq      int
	Src, Dst string
	Phase    int // last phase entered (1..4)

	Aborted   bool // the attempt was torn down
	Completed bool // the attempt finished Phase 4 (mutually exclusive with Aborted)

	SrcVacated     bool // the source's processes left the node (post-PIIC)
	RestartResends int  // lost-FTB_RESTART recoveries on this attempt

	// PoolOutstanding is the number of aggregation-pool chunks not returned
	// to the free list when the target confirmed complete receipt; a non-zero
	// value on a completed attempt is a buffer leak. -1 means the attempt
	// never reached that point (aborted mid-transfer).
	PoolOutstanding int64

	// Flight is the telemetry tail leading up to a terminal failure: the
	// collector's flight-recorder events at the instant the attempt was
	// recorded. Empty for completed attempts or when no recorder is attached.
	Flight []string
}

// recordAttempt appends m's terminal record once.
func (fw *Framework) recordAttempt(m *migrationState, completed bool) {
	if m.recorded {
		return
	}
	m.recorded = true
	rec := AttemptRecord{
		Seq:             m.seq,
		Src:             m.src,
		Dst:             m.dst,
		Phase:           m.phase,
		Aborted:         m.aborted,
		Completed:       completed,
		SrcVacated:      m.srcVacated,
		RestartResends:  m.restartResends,
		PoolOutstanding: m.poolOutstanding,
	}
	if !completed {
		// Terminal failure: capture the black box (nil-safe when no collector
		// or no flight recorder is attached).
		rec.Flight = fw.obsC().Flight().Strings(8)
	}
	fw.Attempts = append(fw.Attempts, rec)
}

// LastVerified reports whether the most recent migration cycle's restored
// images were checksum-verified against the originals (requires Options.Hash).
func (fw *Framework) LastVerified() bool { return fw.lastVerified }

// migrationState is the in-flight migration shared between JM and NLAs (the
// in-process stand-in for state the real components keep per MPI job).
type migrationState struct {
	seq      int
	src, dst string
	ranks    []*mpi.Rank
	sus      *mpi.Suspension

	suspended  *sim.Event // JM: global consistent state reached
	qpReady    *sim.Event // source BM: control QP to target established
	tgtQP      *ib.QP     // target's endpoint of the buffer-manager channel
	tgt        *targetBufMgr
	srcBM      *srcBufMgr
	report     *metrics.Report
	watch      *metrics.Stopwatch
	piicAt     sim.Time
	restarted  *sim.Event
	finished   *sim.Event
	imageSums  map[int]uint64 // rank -> pre-migration image checksum
	restoredOK bool
	// pipelineDone, under RestartPipelined, signals per-rank on-the-fly
	// restart completion.
	pipelineDone map[int]*sim.Event

	// Observability: the attempt's span and the currently open phase child
	// span (both 0 when observability is off).
	span      obs.SpanID
	phaseSpan obs.SpanID

	// Recovery bookkeeping.
	phase           int             // 1..4, last phase entered
	aborted         bool            // this attempt was torn down
	recorded        bool            // terminal AttemptRecord appended
	retries         int             // spare retries already spent on this trigger's chain
	startedAt       sim.Time        // first attempt's start (carried across retries)
	poolOutstanding int64           // agg-pool chunks unreturned at transfer end; -1 unknown
	srcVacated      bool            // source procs removed (post-PIIC point)
	restartSpawned  bool            // target NLA saw FTB_RESTART
	restartResends  int             // lost-FTB_RESTART recoveries on this attempt
	failedNode      string          // node blamed by a MIGRATE_FAILED report
	excluded        map[string]bool // spares burned by earlier attempts of this trigger
}

// abortTeardown idempotently releases every resource of a failed attempt:
// the buffer pool and its MR, both transport endpoints, the target's
// temporary files — and fires the events parked NLA procs wait on, so they
// wake, observe m.aborted, and exit.
func (m *migrationState) abortTeardown() {
	if m.srcBM != nil {
		m.srcBM.abort()
	}
	if m.tgt != nil {
		m.tgt.abort()
	}
	if m.tgtQP != nil {
		m.tgtQP.Close()
	}
	m.suspended.Fire()
	m.qpReady.Fire()
	for _, ev := range m.pipelineDone {
		ev.Fire()
	}
}

// MigratePayload is the FTB_MIGRATE event payload.
type MigratePayload struct {
	Source string
	Target string
	Seq    int
}

// RestartPayload is the FTB_RESTART event payload.
type RestartPayload struct {
	Target string
	Ranks  []int
	Seq    int
}

// Event published by the target NLA when all migrated ranks are running
// again (end of Phase 3).
const eventRestartDone = "FTB_RESTART_DONE"

// Event published by a trigger source to request a migration of a node.
const eventMigrateRequest = "MIGRATE_REQUEST"

// Event published by an NLA when its side of a migration hits an error the
// protocol cannot complete through (transport failure, disk failure).
const eventMigrateFailed = "MIGRATE_FAILED"

// Event published by a migration attempt's watchdog when a phase exceeds its
// deadline without progress.
const eventMigrateTimeout = "MIGRATE_TIMEOUT"

// Event published after a full-job checkpoint completes, nudging the Job
// Manager to serve triggers deferred while the job was frozen.
const eventCkptDone = "CKPT_DONE"

// FailurePayload is the MIGRATE_FAILED event payload. Node is the node the
// reporter blames, or "" when the fault cannot be localized (a transport
// error implicates either endpoint).
type FailurePayload struct {
	Seq    int
	Node   string
	Reason string
}

// Launch starts an MPI job with migration protection: creates the OS
// processes for every rank (using the workload's address-space layout),
// binds them to the MPI world, starts the application, and deploys the Job
// Manager and the NLAs.
func Launch(c *cluster.Cluster, w npb.Workload, ranksPerNode int, res *npb.Result, opts Options) *Framework {
	return LaunchApp(c, w.Name(), c.Placement(w.Ranks, ranksPerNode), w.SegmentSpecs, w.App(res), opts)
}

// LaunchApp is the generic entry point: any app over any placement, with a
// per-rank address-space layout.
func LaunchApp(c *cluster.Cluster, name string, placement []string, segs func(rank int) []proc.SegmentSpec, app func(*mpi.Rank), opts Options) *Framework {
	fw := &Framework{
		C:    c,
		opts: opts.withDefaults(),
		nlas: make(map[string]*NLA),
	}
	fw.W = mpi.NewWorld(c.E, c.Fabric, placement, mpi.Config{})
	for i := range placement {
		node := c.Node(placement[i])
		pr := node.Procs.Spawn(fmt.Sprintf("%s.rank%d", name, i), i, segs(i))
		fw.W.Rank(i).OS = pr
	}
	fw.W.Start(app)

	// NLAs on every primary node (MIGRATION_READY) and spare (MIGRATION_SPARE).
	for _, n := range c.Compute {
		fw.addNLA(n, StateReady)
	}
	for _, n := range c.Spares {
		fw.addNLA(n, StateSpare)
	}
	fw.jm = newJobManager(fw)
	fw.trigger = c.FTB.Connect(c.Login.Name, "migration-trigger")
	if fw.opts.AutoPolicy {
		// Recoveries under AutoPolicy can break links beneath live traffic;
		// the runtime must survive send errors instead of panicking.
		fw.W.SetFaultTolerant(true)
		fw.startPolicyCheckpoints()
	}
	return fw
}

// startPolicyCheckpoints runs the strategy's periodic checkpoint cadence: at
// every interval the strategy is offered an EvTick and a Checkpoint decision
// takes a coordinated full-job checkpoint (PVFS when the cluster has one —
// node-local images die with their node — else ext3). Intervals where a
// migration or checkpoint is already in flight are skipped, not queued: the
// next tick covers them.
func (fw *Framework) startPolicyCheckpoints() {
	interval := fw.opts.CkptInterval
	if !fw.opts.Strategy.Checkpoints() || interval <= 0 {
		return
	}
	fw.C.E.Spawn("core.policy-ckpt", func(p *sim.Proc) {
		for {
			p.Sleep(interval)
			if fw.W.Done() || fw.jm.JobLost {
				return
			}
			if fw.current != nil || fw.ckptActive || fw.recovering {
				continue
			}
			for _, d := range fw.opts.Strategy.Decide(fw.jm.view(nil), strategy.Event{Kind: strategy.EvTick}) {
				if d.Kind != strategy.Checkpoint {
					continue
				}
				target := cr.Ext3
				if fw.C.PVFS != nil {
					target = cr.PVFS
				}
				if _, err := fw.Checkpoint(p, target); err != nil {
					fw.jm.CkptFailures++
					p.Trace("core.policy", "periodic checkpoint failed: "+err.Error())
				} else {
					fw.jm.PolicyCheckpoints++
				}
				break
			}
		}
	})
}

func (fw *Framework) addNLA(n *cluster.Node, st NLAState) {
	nla := newNLA(fw, n, st)
	fw.nlas[n.Name] = nla
	fw.nlaList = append(fw.nlaList, nla)
}

// NLA returns the agent on the given node.
func (fw *Framework) NLA(node string) *NLA { return fw.nlas[node] }

// JobManager returns the job manager.
func (fw *Framework) JobManager() *JobManager { return fw.jm }

// TriggerMigration requests migration of the given source node (the paper's
// user-initiated trigger: "our design also enables direct user intervention
// to trigger a migration"). The Job Manager picks the spare. The returned
// event fires when the whole cycle (through Phase 4) has completed.
func (fw *Framework) TriggerMigration(p *sim.Proc, srcNode string) *sim.Event {
	done := sim.NewEvent(fw.C.E)
	fw.jm.completionWaiters = append(fw.jm.completionWaiters, done)
	fw.trigger.Publish(p, ftb.Event{
		Namespace: ftb.NamespaceMVAPICH,
		Name:      eventMigrateRequest,
		Payload:   srcNode,
	})
	return done
}

// AttachPredictor routes health-predictor failure predictions into migration
// requests (the proactive path).
func (fw *Framework) AttachPredictor(predictions *sim.Queue[string]) {
	fw.C.E.Spawn("core.predictor-bridge", func(p *sim.Proc) {
		for {
			node, ok := predictions.Recv(p)
			if !ok {
				return
			}
			fw.TriggerMigration(p, node)
		}
	})
}

// Checkpoint takes a coordinated full-job checkpoint and keeps it as the
// recovery image the CR-fallback path restores from when a migration loses
// the race against an actual failure. It must not overlap a migration (both
// own the suspension protocol); migration triggers arriving while the job is
// frozen are deferred and served afterwards.
func (fw *Framework) Checkpoint(p *sim.Proc, target cr.Target) (*metrics.Report, error) {
	if fw.current != nil {
		return nil, fmt.Errorf("core: checkpoint while migration #%d is in flight", fw.current.seq)
	}
	if fw.ckptActive {
		return nil, fmt.Errorf("core: checkpoint already in progress")
	}
	if fw.recovering {
		return nil, fmt.Errorf("core: checkpoint while a recovery owns the suspension")
	}
	fw.ckptActive = true
	defer func() { fw.ckptActive = false }()
	var span obs.SpanID
	c := fw.obsC()
	if c != nil {
		span = c.StartSpan(p.Now(), fmt.Sprintf("checkpoint(%s)", target), "jm", 0)
	}
	r := cr.NewRunner(fw.C, fw.W, target, fw.opts.Hash)
	rep, cerr := r.Checkpoint(p)
	c.EndSpan(p.Now(), span)
	if cerr == nil {
		fw.ckpt = r
		fw.ckptTakenAt = p.Now()
	}
	// Publish CKPT_DONE even on failure: deferred migration triggers (and
	// deferred dead-node reactions) are drained off this event, and a failed
	// dump must not leave them parked.
	fw.trigger.Publish(p, ftb.Event{Namespace: ftb.NamespaceMVAPICH, Name: eventCkptDone})
	if cerr != nil {
		return rep, cerr
	}
	return rep, nil
}
