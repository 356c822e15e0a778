// Package fleet is the cluster-scale control plane: it schedules many
// concurrent MPI jobs across thousands of simulated nodes over weeks of sim
// time, and manages the spare pool the paper's migration framework assumes
// into existence — nodes cycle active → cordoned → draining → spare →
// failed → repaired under health warnings and fault events, with the spare
// fraction optionally autoscaled against an observed failure-rate estimator.
//
// The model is deliberately coarser than internal/core: jobs are
// width × work rectangles with Young/Daly-style checkpoint arithmetic
// (interval τ, cost δ) rather than rank-level MPI programs, so a 10k-node ×
// 30-sim-day campaign stays cheap. Everything random — failure times,
// victims, repair durations, false alarms, the job workload — is sampled up
// front by BuildSchedule/BuildWorkload from the config seed; the System
// itself is rng-free, so a run is a pure function of its Config and every
// policy arm of a campaign faces the identical failure realization.
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/fault"
	"ibmig/internal/ftmodel"
	"ibmig/internal/health"
	"ibmig/internal/sim"
)

// Policy selects the queue discipline of the placement engine.
type Policy string

// Scheduling policies.
const (
	// PolicyFIFO runs strict first-come-first-served: the queue head blocks
	// everything behind it until it fits.
	PolicyFIFO Policy = "fifo"
	// PolicyBackfill is EASY backfill: the head reserves the earliest time it
	// could start (the shadow time); later jobs may jump ahead if they fit now
	// and either finish before the shadow time or use nodes the head does not
	// need.
	PolicyBackfill Policy = "backfill"
)

// The fault-tolerance time constants every job pays, mirroring
// ftmodel.Params at fleet granularity.
const (
	// ckptInterval is the checkpoint interval τ: useful work between
	// checkpoints.
	ckptInterval = time.Hour
	// ckptCost is the cost δ of writing one checkpoint.
	ckptCost = 4 * time.Minute
	// restartCost is the cost R of restarting a job from its last
	// checkpoint after an unpredicted failure (re-spawn + checkpoint read).
	restartCost = 10 * time.Minute
	// MigrationCost is the cost m of a proactive drain: the job pauses this
	// long while one node's state moves to the drain target.
	MigrationCost = 3 * time.Minute
)

// Operational constants of the health predictor and the autoscaler.
const (
	// warnLead is how far ahead a predicted failure is warned, and how long
	// a false alarm keeps its node cordoned.
	warnLead = 10 * time.Minute
	// scaleEvery is the autoscaler's retargeting cadence.
	scaleEvery = 12 * time.Hour
	// safetySigma is the autoscaler's pool floor in √m units: burst
	// headroom over the mean in-repair population m.
	safetySigma = 2
	// minSpares is the spare-pool floor.
	minSpares = 1
)

// Config describes one fleet run. Zero values fall back to a small but
// representative setup (64 nodes in racks of 8, MTBF 6 days, repair 12 h);
// the rate/fraction knobs (Coverage, RackFrac, AlarmsPerDay, ArriveFrac,
// SpareFrac) take a negative value to mean exactly zero, since their zero
// value selects the default.
type Config struct {
	Nodes    int // fleet size (compute + spares), default 64
	RackSize int // nodes per rack (correlated-failure unit), default 8

	NodeMTBF     sim.Duration // per-node mean time between failures, default 144h
	RepairMean   sim.Duration // mean (exponential) repair time, default 12h
	Coverage     float64      // fraction of node failures predicted ahead, default 0.7
	RackFrac     float64      // fraction of failures taking the whole rack, default 0.02
	AlarmsPerDay float64      // fleet-wide false-alarm rate (cordon, then clear), default 2

	SpareFrac float64 // initial (and, without AutoScale, fixed) spare fraction, default 0.08
	AutoScale bool    // retarget the pool from the observed failure rate

	Policy  Policy       // default PolicyBackfill
	Horizon sim.Duration // campaign length, default 7 days
	Seed    int64        // schedule + workload seed, default 1

	Jobs       int          // workload size, default 32
	MaxWidth   int          // max job width in nodes, default 16
	MeanWork   sim.Duration // mean useful work per job, default 8h
	ArriveFrac float64      // jobs arrive uniformly over this fraction of the horizon, default 0.5
}

const day = 24 * time.Hour

func (c Config) withDefaults() Config {
	if c.Nodes == 0 {
		c.Nodes = 64
	}
	if c.RackSize == 0 {
		c.RackSize = 8
	}
	if c.NodeMTBF == 0 {
		c.NodeMTBF = 6 * day
	}
	if c.RepairMean == 0 {
		c.RepairMean = 12 * time.Hour
	}
	if c.Coverage == 0 {
		c.Coverage = 0.7
	} else if c.Coverage < 0 {
		c.Coverage = 0
	}
	if c.RackFrac == 0 {
		c.RackFrac = 0.02
	} else if c.RackFrac < 0 {
		c.RackFrac = 0
	}
	if c.AlarmsPerDay == 0 {
		c.AlarmsPerDay = 2
	} else if c.AlarmsPerDay < 0 {
		c.AlarmsPerDay = 0
	}
	if c.SpareFrac == 0 {
		c.SpareFrac = 0.08
	} else if c.SpareFrac < 0 {
		c.SpareFrac = 0
	}
	if c.Policy == "" {
		c.Policy = PolicyBackfill
	}
	if c.Horizon == 0 {
		c.Horizon = 7 * day
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Jobs == 0 {
		c.Jobs = 32
	}
	if c.MaxWidth == 0 {
		c.MaxWidth = 16
	}
	if c.MeanWork == 0 {
		c.MeanWork = 8 * time.Hour
	}
	if c.ArriveFrac == 0 {
		c.ArriveFrac = 0.5
	} else if c.ArriveFrac < 0 {
		c.ArriveFrac = 0
	}
	return c
}

// FailEvent is one pre-sampled hardware failure. Predicted failures also get
// a health warning warnLead ahead of At; rack failures take every rack member
// down together.
type FailEvent struct {
	At        sim.Time
	Node      int
	Kind      fault.Kind // fault.NodeCrash or fault.RackFail
	Predicted bool
	Repair    sim.Duration
}

// AlarmEvent is a pre-sampled false health alarm: the node is cordoned at At
// and cleared (uncordoned) Clear later unless it drained or died meanwhile.
type AlarmEvent struct {
	At    sim.Time
	Node  int
	Clear sim.Duration
}

// Schedule is the full pre-sampled failure realization of one run.
type Schedule struct {
	Fails  []FailEvent
	Alarms []AlarmEvent
}

// BuildSchedule samples the failure schedule for cfg. Failures arrive as a
// Poisson process at the whole-fleet rate Nodes/NodeMTBF with a uniform
// victim; fires on already-dead nodes are skipped at run time, which thins
// the process into exact per-alive-node exponentials. Repairs are
// exponential (memoryless, matching the analytical model in ftmodel).
func BuildSchedule(cfg Config) Schedule {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	var s Schedule
	rate := float64(cfg.Nodes) / float64(cfg.NodeMTBF) // failures per ns
	horizon := float64(cfg.Horizon)
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		if t >= horizon {
			break
		}
		fe := FailEvent{
			At:     sim.Time(t),
			Node:   rng.Intn(cfg.Nodes),
			Kind:   fault.NodeCrash,
			Repair: sim.Duration(rng.ExpFloat64() * float64(cfg.RepairMean)),
		}
		if rng.Float64() < cfg.RackFrac && cfg.RackSize > 0 {
			fe.Kind = fault.RackFail // rack blowouts are never predicted
		} else if rng.Float64() < cfg.Coverage {
			fe.Predicted = true
		}
		s.Fails = append(s.Fails, fe)
	}
	alarmRate := cfg.AlarmsPerDay / float64(day)
	for t := 0.0; cfg.AlarmsPerDay > 0; {
		t += rng.ExpFloat64() / alarmRate
		if t >= horizon {
			break
		}
		s.Alarms = append(s.Alarms, AlarmEvent{
			At:    sim.Time(t),
			Node:  rng.Intn(cfg.Nodes),
			Clear: warnLead,
		})
	}
	return s
}

// JobSpec is one pre-sampled workload entry.
type JobSpec struct {
	ID     int
	Submit sim.Time
	Width  int          // nodes required
	Work   sim.Duration // useful work to accumulate
}

// BuildWorkload samples cfg.Jobs job specs: submissions uniform over the
// first ArriveFrac of the horizon, widths uniform in [1, MaxWidth], work
// exponential around MeanWork (clamped to [MeanWork/8, 4·MeanWork] so no
// single job dominates a campaign). Sorted by submit time.
func BuildWorkload(cfg Config) []JobSpec {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	out := make([]JobSpec, cfg.Jobs)
	window := float64(cfg.Horizon) * cfg.ArriveFrac
	for i := range out {
		work := sim.Duration(rng.ExpFloat64() * float64(cfg.MeanWork))
		if lo := cfg.MeanWork / 8; work < lo {
			work = lo
		}
		if hi := 4 * cfg.MeanWork; work > hi {
			work = hi
		}
		out[i] = JobSpec{
			Submit: sim.Time(rng.Float64() * window),
			Width:  1 + rng.Intn(cfg.MaxWidth),
			Work:   work,
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Submit != out[j].Submit {
			return out[i].Submit < out[j].Submit
		}
		return out[i].Width < out[j].Width
	})
	for i := range out {
		out[i].ID = i
	}
	return out
}

// PlacementEvent records one node acquisition or release by a job. State is
// the node's lifecycle state at the instant of the event — the fleet
// invariants assert acquisitions only ever see StateActive.
type PlacementEvent struct {
	T       sim.Time
	Job     int
	Node    int
	Acquire bool
	State   NodeState
}

// DrainRecord tracks one proactive drain from start to disposition.
// Outcome is "spare" (source returned to the pool), "failed" (source died
// mid-drain; the job was unharmed — its state moved at drain start), or
// "cut" (the horizon fell mid-drain).
type DrainRecord struct {
	Node, Job  int
	Start, End sim.Time
	Outcome    string
}

// System is one fleet run: nodes, jobs, queue, pool, and probes. Build with
// New, drive with Run. All mutation happens on the engine goroutine via
// At-callbacks; System has no locks and no randomness.
type System struct {
	E    *sim.Engine
	Cfg  Config
	Topo *cluster.Topology

	Nodes []*Node
	Jobs  []*Job

	sched Schedule
	work  []JobSpec

	queue         []*Job // submitted, not yet placed (FIFO order)
	waiting       []*Job // suspended, short of replacement nodes
	pool          []int  // spare node ids, ascending
	pendingDrains []int  // cordoned node ids with a job, awaiting a drain target

	spareTarget int
	est         *health.RateEstimator

	// Probes and accounting.
	acct        []sim.Time // per-node last-accounted instant
	StateNS     [numStates]int64
	BusyNS      int64 // StateActive with a job
	FreeNS      int64 // StateActive without
	Transitions [numStates][numStates]uint64
	Placements  []PlacementEvent
	Drains      []DrainRecord
	Interrupts  int // unpredicted failure hits on leased nodes

	onPlacement func(ev PlacementEvent)

	mttr      []sim.Duration
	activity  uint64 // bumps on every transition/placement; serveNodes' fixpoint detector
	finalized bool
}

// New assembles a fleet on the engine: Nodes machines racked RackSize apiece
// (via cluster.Topology), the initial spare pool carved off the tail, and
// the failure schedule plus workload pre-sampled from cfg.Seed.
func New(e *sim.Engine, cfg Config) *System {
	cfg = cfg.withDefaults()
	s := &System{
		E:     e,
		Cfg:   cfg,
		sched: BuildSchedule(cfg),
		work:  BuildWorkload(cfg),
		est:   health.NewRateEstimator(1/float64(cfg.NodeMTBF.Hours()), 4),
		acct:  make([]sim.Time, cfg.Nodes),
	}
	names := make([]string, cfg.Nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%04d", i)
	}
	s.Topo = cluster.NewTopology(names, cfg.RackSize)
	s.spareTarget = s.clampTarget(int(math.Round(cfg.SpareFrac * float64(cfg.Nodes))))
	s.Nodes = make([]*Node, cfg.Nodes)
	for i := range s.Nodes {
		s.Nodes[i] = &Node{ID: i, Name: names[i], Rack: s.Topo.RackOf(names[i]), State: StateActive}
	}
	for i := cfg.Nodes - s.spareTarget; i < cfg.Nodes; i++ {
		s.Nodes[i].State = StateSpare
		s.pool = append(s.pool, i)
	}
	return s
}

func (s *System) clampTarget(k int) int {
	if k < minSpares {
		k = minSpares
	}
	if max := s.Cfg.Nodes / 2; k > max {
		k = max
	}
	return k
}

// OnPlacement registers a probe called on every node acquisition/release.
func (s *System) OnPlacement(fn func(ev PlacementEvent)) { s.onPlacement = fn }

// PoolSize returns the current spare-pool population.
func (s *System) PoolSize() int { return len(s.pool) }

// SpareTarget returns the current pool target (fixed, or the autoscaler's
// latest estimate).
func (s *System) SpareTarget() int { return s.spareTarget }

// Run installs the pre-sampled schedule and workload as engine events,
// drives the simulation to the horizon, and returns the economics rollup.
func (s *System) Run() *Result {
	horizon := sim.Time(s.Cfg.Horizon)
	for _, js := range s.work {
		js := js
		s.E.At(js.Submit, func() { s.submit(js) })
	}
	for _, fe := range s.sched.Fails {
		fe := fe
		s.E.At(fe.At, func() { s.onFail(fe) })
		if fe.Predicted {
			warn := fe.At - sim.Time(warnLead)
			if warn < 0 {
				warn = 0
			}
			node := fe.Node
			s.E.At(warn, func() { s.onWarn(node) })
		}
	}
	for _, al := range s.sched.Alarms {
		al := al
		s.E.At(al.At, func() { s.onAlarm(al) })
	}
	if s.Cfg.AutoScale {
		s.armRescale(sim.Time(scaleEvery))
	}
	if err := s.E.RunUntil(horizon); err != nil {
		panic(fmt.Sprintf("fleet: run failed: %v", err))
	}
	s.finalize(horizon)
	return s.result(horizon)
}

func (s *System) armRescale(at sim.Time) {
	if at >= sim.Time(s.Cfg.Horizon) {
		return
	}
	s.E.At(at, func() {
		s.rescale(at)
		s.armRescale(at + sim.Time(scaleEvery))
	})
}

// rescale retargets the spare pool from the observed failure rate. The
// Bayesian estimate λ̂ (per node-hour) feeds the analytical newsvendor model
// in internal/ftmodel, which sizes the pool to buffer Poisson bursts of the
// in-repair population above its self-balancing mean; an operational
// safetySigma·√m floor guards the early campaign, when λ̂ still leans on its
// prior.
func (s *System) rescale(t sim.Time) {
	exposure := float64(s.Cfg.Nodes) * sim.Duration(t).Hours() // node-hours, slight over-count of dead time
	lambda := s.est.Rate(exposure)
	p := ftmodel.SpareParams{
		Nodes:      s.Cfg.Nodes,
		NodeMTBF:   sim.Duration(float64(time.Hour) / lambda),
		RepairMean: s.Cfg.RepairMean,
		MeanWidth:  float64(1+s.Cfg.MaxWidth) / 2,
	}
	m := p.InRepairMean(0)
	k := p.OptimalSpares()
	if floor := int(math.Ceil(safetySigma * math.Sqrt(m))); k < floor {
		k = floor
	}
	s.spareTarget = s.clampTarget(k)
	s.serveNodes(t)
}

// --- failure / health event handlers ---

func (s *System) onFail(fe FailEvent) {
	t := fe.At
	victims := []int{fe.Node}
	if fe.Kind == fault.RackFail {
		victims = s.rackIDs(fe.Node)
	}
	for _, id := range victims {
		s.failNode(t, s.Nodes[id], fe.Repair)
	}
	s.serveNodes(t)
}

func (s *System) rackIDs(id int) []int {
	members := s.Topo.RackMembers(s.Nodes[id].Name)
	if members == nil {
		return []int{id}
	}
	out := make([]int, 0, len(members))
	for _, name := range members {
		var nid int
		fmt.Sscanf(name, "n%04d", &nid)
		out = append(out, nid)
	}
	return out
}

func (s *System) failNode(t sim.Time, n *Node, repair sim.Duration) {
	if n.State == StateFailed || n.State == StateRepaired {
		return // already down: the Poisson schedule is thinned here
	}
	s.est.Observe()
	switch n.State {
	case StateSpare:
		s.poolRemove(n.ID)
	case StateCordoned:
		s.dropPendingDrain(n.ID)
	}
	job := n.Job
	s.to(t, n, StateFailed)
	n.Job = nil
	if job != nil {
		s.release(t, job, n)
		s.jobInterrupt(t, job)
	}
	s.E.At(t+sim.Time(repair), func() { s.repairNode(t+sim.Time(repair), n) })
}

func (s *System) repairNode(t sim.Time, n *Node) {
	s.to(t, n, StateRepaired)
	s.to(t, n, StateSpare)
	s.poolAdd(n.ID)
	s.serveNodes(t)
}

// onWarn handles a true failure prediction: cordon the node and, if it
// carries a job, drain it to a spare.
func (s *System) onWarn(id int) {
	n := s.Nodes[id]
	t := s.E.Now()
	s.cordonAndDrain(t, n)
}

func (s *System) onAlarm(al AlarmEvent) {
	n := s.Nodes[al.Node]
	t := al.At
	s.cordonAndDrain(t, n)
	s.E.At(t+sim.Time(al.Clear), func() { s.clearAlarm(s.E.Now(), n) })
}

// clearAlarm uncordons a node whose health warning did not pan out. If the
// drain already ran (or the node died), there is nothing to undo — the
// needless migration is exactly the false-alarm cost the economics charge.
func (s *System) clearAlarm(t sim.Time, n *Node) {
	if n.State != StateCordoned {
		return
	}
	s.dropPendingDrain(n.ID)
	s.to(t, n, StateActive)
	s.serveNodes(t)
}

func (s *System) cordonAndDrain(t sim.Time, n *Node) {
	if n.State != StateActive {
		return // spare/draining/down nodes are not schedulable anyway
	}
	s.to(t, n, StateCordoned)
	if n.Job == nil || n.Job.State != JobRunning {
		// Free cordoned nodes either fail or get cleared later. Paused and
		// suspended jobs hold no live segment state (their progress is
		// already durable), so draining their nodes would move nothing.
		return
	}
	if dst, ok := s.takeTarget(t); ok {
		s.startDrain(t, n, dst)
	} else {
		s.pendingDrains = append(s.pendingDrains, n.ID)
	}
}

// takeTarget claims a destination node for a drain or a failure
// replacement — from the spare pool only. That is the paper's semantics:
// migration and restart land on spares; compute nodes freed by job
// completions belong to the scheduler queue, not to in-flight jobs. (The
// rebalancer still tops the pool up from idle nodes, so completions help
// stranded jobs indirectly, rate-limited by the spare target.)
func (s *System) takeTarget(t sim.Time) (*Node, bool) {
	if len(s.pool) == 0 {
		return nil, false
	}
	n := s.Nodes[s.pool[0]]
	s.pool = s.pool[1:]
	s.to(t, n, StateActive)
	return n, true
}

func (s *System) poolAdd(id int) {
	i := sort.SearchInts(s.pool, id)
	s.pool = append(s.pool, 0)
	copy(s.pool[i+1:], s.pool[i:])
	s.pool[i] = id
}

func (s *System) poolRemove(id int) {
	i := sort.SearchInts(s.pool, id)
	if i < len(s.pool) && s.pool[i] == id {
		s.pool = append(s.pool[:i], s.pool[i+1:]...)
	}
}

func (s *System) dropPendingDrain(id int) {
	for i, v := range s.pendingDrains {
		if v == id {
			s.pendingDrains = append(s.pendingDrains[:i], s.pendingDrains[i+1:]...)
			return
		}
	}
}

// --- drains ---

// startDrain migrates src's share of its job to dst. The job's state moves
// atomically at drain start — progress since the last checkpoint is banked,
// nothing is lost — then the job pauses for the migration cost. The source
// node finishes draining on its own clock and rejoins the pool (or dies
// trying); the job's fate is decoupled from it from this instant.
func (s *System) startDrain(t sim.Time, src, dst *Node) {
	job := src.Job
	s.bank(t, job)
	rec := len(s.Drains)
	s.Drains = append(s.Drains, DrainRecord{Node: src.ID, Job: job.ID, Start: t})
	s.to(t, src, StateDraining)
	s.release(t, job, src)
	s.acquire(t, job, dst)
	s.pause(t, job, pauseMigrate, sim.Time(MigrationCost))
	end := t + sim.Time(MigrationCost)
	s.E.At(end, func() { s.endDrainSource(end, src, rec) })
}

func (s *System) endDrainSource(t sim.Time, src *Node, rec int) {
	d := &s.Drains[rec]
	d.End = t
	if src.State != StateDraining {
		d.Outcome = "failed" // died mid-drain; the job was already safe
		return
	}
	d.Outcome = "spare"
	s.to(t, src, StateSpare)
	s.poolAdd(src.ID)
	s.serveNodes(t)
}

// --- node supply loop ---

// serveNodes routes freed capacity in strict priority order: suspended jobs
// needing replacements, pending drains needing targets, the job queue, and
// only then pool rebalance toward the spare target — the pool may keep only
// nodes the scheduler has no use for, so in a busy fleet its steady-state
// supply is the repair crew, exactly the regime the ftmodel spare economics
// assume. The stages loop to a fixpoint because each can free or claim
// capacity the others want.
func (s *System) serveNodes(t sim.Time) {
	for {
		before := s.activity
		for i := 0; i < len(s.waiting); {
			job := s.waiting[i]
			s.refill(t, job)
			if job.missing == 0 {
				s.waiting = append(s.waiting[:i], s.waiting[i+1:]...)
				job.StallNS += int64(t - job.suspendStart)
				s.pause(t, job, pauseRestart, sim.Time(restartCost))
			} else {
				i++
			}
		}
		for len(s.pendingDrains) > 0 {
			src := s.Nodes[s.pendingDrains[0]]
			if src.State != StateCordoned || src.Job == nil || src.Job.State != JobRunning {
				// Stale request: the job finished, paused, or suspended, or
				// the node moved on. Nothing live to move anymore.
				s.pendingDrains = s.pendingDrains[1:]
				continue
			}
			dst, ok := s.takeTarget(t)
			if !ok {
				break
			}
			s.pendingDrains = s.pendingDrains[1:]
			s.startDrain(t, src, dst)
		}
		s.trySchedule(t)
		s.rebalance(t)
		if s.activity == before {
			return
		}
	}
}

// refill hands free nodes to a suspended job until its lease is whole again.
func (s *System) refill(t sim.Time, job *Job) {
	for job.missing > 0 {
		n, ok := s.takeTarget(t)
		if !ok {
			return
		}
		s.acquire(t, job, n)
		job.missing--
	}
}

// rebalance moves the pool toward the spare target: surplus spares are
// promoted to active (schedulable) nodes; a deficit is covered by demoting
// free active nodes through an instant no-job drain.
func (s *System) rebalance(t sim.Time) {
	for len(s.pool) > s.spareTarget {
		n := s.Nodes[s.pool[0]]
		s.pool = s.pool[1:]
		s.to(t, n, StateActive)
	}
	if len(s.pool) >= s.spareTarget {
		return
	}
	for _, n := range s.Nodes {
		if len(s.pool) >= s.spareTarget {
			break
		}
		if n.State == StateActive && n.Job == nil {
			s.to(t, n, StateCordoned)
			s.to(t, n, StateDraining)
			s.to(t, n, StateSpare)
			s.poolAdd(n.ID)
		}
	}
}

// --- accounting ---

// account charges the node's state-time since its last accounting instant to
// the per-state buckets, splitting active time into busy (leased) and free.
func (s *System) account(t sim.Time, n *Node) {
	dt := int64(t - s.acct[n.ID])
	if dt <= 0 {
		s.acct[n.ID] = t
		return
	}
	s.StateNS[n.State] += dt
	if n.State == StateActive {
		if n.Job != nil {
			s.BusyNS += dt
		} else {
			s.FreeNS += dt
		}
	}
	s.acct[n.ID] = t
}

func (s *System) acquire(t sim.Time, job *Job, n *Node) {
	if n.Job != nil {
		panic(fmt.Sprintf("fleet: node %s double-booked: job %d over job %d", n.Name, job.ID, n.Job.ID))
	}
	s.account(t, n)
	s.activity++
	n.Job = job
	job.Nodes = append(job.Nodes, n.ID)
	ev := PlacementEvent{T: t, Job: job.ID, Node: n.ID, Acquire: true, State: n.State}
	s.Placements = append(s.Placements, ev)
	if s.onPlacement != nil {
		s.onPlacement(ev)
	}
}

func (s *System) release(t sim.Time, job *Job, n *Node) {
	s.account(t, n)
	n.Job = nil
	for i, id := range job.Nodes {
		if id == n.ID {
			job.Nodes = append(job.Nodes[:i], job.Nodes[i+1:]...)
			break
		}
	}
	ev := PlacementEvent{T: t, Job: job.ID, Node: n.ID, Acquire: false, State: n.State}
	s.Placements = append(s.Placements, ev)
	if s.onPlacement != nil {
		s.onPlacement(ev)
	}
}

// finalize settles every account at the horizon and stamps a terminal reason
// on every job the horizon cut.
func (s *System) finalize(horizon sim.Time) {
	for _, job := range s.Jobs {
		switch job.State {
		case JobRunning:
			s.bank(horizon, job)
			job.Reason = "horizon"
		case JobPaused:
			job.chargePause(horizon)
			job.Reason = "horizon"
		case JobSuspended:
			job.StallNS += int64(horizon - job.suspendStart)
			job.Reason = "horizon"
		case JobQueued:
			job.Reason = "horizon"
		}
	}
	for _, n := range s.Nodes {
		s.account(horizon, n)
	}
	for i := range s.Drains {
		if s.Drains[i].Outcome == "" {
			s.Drains[i].End = horizon
			s.Drains[i].Outcome = "cut"
		}
	}
	s.finalized = true
}
