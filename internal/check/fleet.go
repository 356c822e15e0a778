package check

// Fleet-scale DST: seeded random fleet-control-plane scenarios (cluster
// shape × failure regime × pool policy × workload) run through
// internal/fleet with probes attached, checked against the fleet invariants:
//
//	fleet-no-double-book   no node is acquired while occupied, or released idle
//	fleet-placement-active placements only ever land on Active nodes
//	fleet-drain-terminal   every drain completes (spare/failed) or is cut by the horizon
//	fleet-conserve         node-time is conserved across lifecycle states; the
//	                       pool count matches the spare-state population
//	fleet-job-terminal     every submitted job ends with a terminal reason and
//	                       coherent accounting
//
// Specs are "flt"-prefixed one-liners (`protocheck -spec "flt seed=7 n=96"`),
// same canonical-round-trip discipline as migration scenarios.

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"ibmig/internal/fleet"
	"ibmig/internal/sim"
)

// FleetScenario is one fully-specified fleet DST run. Integer fields keep
// the spec tokens exact (hours, days, percent).
type FleetScenario struct {
	Seed     int64 `json:"seed"`
	Nodes    int   `json:"nodes"`
	Rack     int   `json:"rack"`      // nodes per rack
	MTBFH    int   `json:"mtbf_h"`    // per-node MTBF, hours
	RepairH  int   `json:"repair_h"`  // mean repair time, hours
	SparePct int   `json:"spare_pct"` // initial spare pool, percent of fleet
	Auto     bool  `json:"auto"`      // autoscale the pool
	FIFO     bool  `json:"fifo"`      // strict FIFO queue (default EASY-backfill)
	Days     int   `json:"days"`      // horizon, days
	Jobs     int   `json:"jobs"`
	MaxWidth int   `json:"max_width"`
	WorkH    int   `json:"work_h"` // mean job work, hours
}

// fleetSpec is the fleet spec's field table. Its defaults are the baseline
// every field shrinks toward: a failure-rich week on a small fleet. The
// shrinker turns the policy flags off before it resets the shape.
var fleetSpec = newCodec("flt",
	[]string{"auto", "fifo", "n", "rk", "mtbf", "rep", "sp", "d", "j", "w", "work"},
	seed(func(s *FleetScenario) *int64 { return &s.Seed }),
	num("n", func(s *FleetScenario) *int { return &s.Nodes }, 64),
	num("rk", func(s *FleetScenario) *int { return &s.Rack }, 8),
	num("mtbf", func(s *FleetScenario) *int { return &s.MTBFH }, 48),
	num("rep", func(s *FleetScenario) *int { return &s.RepairH }, 8),
	num("sp", func(s *FleetScenario) *int { return &s.SparePct }, 8),
	flag("auto", func(s *FleetScenario) *bool { return &s.Auto }),
	flag("fifo", func(s *FleetScenario) *bool { return &s.FIFO }),
	num("d", func(s *FleetScenario) *int { return &s.Days }, 5),
	num("j", func(s *FleetScenario) *int { return &s.Jobs }, 48),
	num("w", func(s *FleetScenario) *int { return &s.MaxWidth }, 12),
	num("work", func(s *FleetScenario) *int { return &s.WorkH }, 12),
)

// DefaultFleet is the baseline every fleet spec field shrinks toward.
func DefaultFleet() FleetScenario { return fleetSpec.def }

// IsFleetSpec reports whether a protocheck spec names a fleet scenario.
func IsFleetSpec(spec string) bool {
	f := strings.Fields(spec)
	return len(f) > 0 && f[0] == fleetSpec.prefix
}

// String renders the canonical "flt"-prefixed spec; ParseFleet round-trips
// it.
func (fs FleetScenario) String() string { return fleetSpec.format(fs) }

// ParseFleet reads a spec produced by FleetScenario.String.
func ParseFleet(spec string) (FleetScenario, error) { return fleetSpec.parse(spec) }

// Fields counts spec fields differing from DefaultFleet (seed excluded);
// the shrinker minimizes this.
func (fs FleetScenario) Fields() int { return fleetSpec.count(fs) }

func (fs FleetScenario) candidates() []FleetScenario { return fleetSpec.candidates(fs) }

// Valid reports whether the scenario is inside the fleet DST envelope (sized
// so a sweep of hundreds stays fast).
func (fs FleetScenario) Valid() error {
	switch {
	case fs.Nodes < 16 || fs.Nodes > 1024:
		return fmt.Errorf("check: fleet nodes %d out of range [16,1024]", fs.Nodes)
	case fs.Rack < 2 || fs.Rack > fs.Nodes:
		return fmt.Errorf("check: rack size %d out of range [2,nodes]", fs.Rack)
	case fs.MTBFH < 6 || fs.MTBFH > 2400:
		return fmt.Errorf("check: MTBF %dh out of range [6,2400]", fs.MTBFH)
	case fs.RepairH < 1 || fs.RepairH > 240:
		return fmt.Errorf("check: repair %dh out of range [1,240]", fs.RepairH)
	case fs.SparePct < 0 || fs.SparePct > 40:
		return fmt.Errorf("check: spare %d%% out of range [0,40]", fs.SparePct)
	case fs.Days < 1 || fs.Days > 45:
		return fmt.Errorf("check: horizon %dd out of range [1,45]", fs.Days)
	case fs.Jobs < 1 || fs.Jobs > 2000:
		return fmt.Errorf("check: jobs %d out of range [1,2000]", fs.Jobs)
	case fs.MaxWidth < 1 || fs.MaxWidth > fs.Nodes:
		return fmt.Errorf("check: max width %d out of range [1,nodes]", fs.MaxWidth)
	case fs.WorkH < 1 || fs.WorkH > 500:
		return fmt.Errorf("check: mean work %dh out of range [1,500]", fs.WorkH)
	}
	return nil
}

// GenerateFleet derives a random valid fleet scenario from the seed — same
// one-integer-pins-the-run contract as Generate.
func GenerateFleet(seed int64) FleetScenario {
	rng := rand.New(rand.NewSource(seed))
	fs := DefaultFleet()
	fs.Seed = seed
	fs.Nodes = []int{32, 48, 64, 96, 128}[rng.Intn(5)]
	fs.Rack = []int{4, 8, 16}[rng.Intn(3)]
	fs.MTBFH = []int{12, 24, 48, 96, 240}[rng.Intn(5)]
	fs.RepairH = []int{2, 6, 12, 24}[rng.Intn(4)]
	fs.SparePct = []int{0, 4, 8, 15, 25}[rng.Intn(5)]
	fs.Auto = rng.Intn(2) == 0
	fs.FIFO = rng.Intn(4) == 0
	fs.Days = []int{2, 5, 10}[rng.Intn(3)]
	fs.Jobs = 16 + rng.Intn(113)
	fs.MaxWidth = []int{4, 8, 12, 16}[rng.Intn(4)]
	fs.WorkH = []int{4, 8, 16, 40}[rng.Intn(4)]
	if fs.MaxWidth > fs.Nodes/2 {
		fs.MaxWidth = fs.Nodes / 2
	}
	if err := fs.Valid(); err != nil {
		panic("check: fleet generator produced invalid scenario: " + err.Error())
	}
	return fs
}

func (fs FleetScenario) config() fleet.Config {
	cfg := fleet.Config{
		Nodes:      fs.Nodes,
		RackSize:   fs.Rack,
		NodeMTBF:   time.Duration(fs.MTBFH) * time.Hour,
		RepairMean: time.Duration(fs.RepairH) * time.Hour,
		SpareFrac:  float64(fs.SparePct) / 100,
		AutoScale:  fs.Auto,
		Policy:     fleet.PolicyBackfill,
		Horizon:    time.Duration(fs.Days) * 24 * time.Hour,
		Seed:       fs.Seed,
		Jobs:       fs.Jobs,
		MaxWidth:   fs.MaxWidth,
		MeanWork:   time.Duration(fs.WorkH) * time.Hour,
	}
	if fs.SparePct == 0 {
		cfg.SpareFrac = -1
	}
	if fs.FIFO {
		cfg.Policy = fleet.PolicyFIFO
	}
	return cfg
}

// FleetResult is the outcome of one fleet scenario run.
type FleetResult struct {
	outcome[FleetScenario]
	R *fleet.Result `json:"result,omitempty"`
}

func (r *FleetResult) describe(w io.Writer) {
	fmt.Fprintf(w, "fleet scenario: %s\n", r.Spec)
	if r.R != nil {
		fmt.Fprintf(w, "  jobs=%d completed=%d rejected=%d interrupts=%d drains=%d goodput=%.1f%%\n",
			r.R.JobsTotal, r.R.JobsCompleted, r.R.JobsRejected,
			r.R.Interrupts, r.R.Drains, r.R.GoodputPct)
	}
}

// RunFleetScenario executes one fleet scenario with probes attached and
// evaluates every fleet invariant. Like RunScenario it never panics — the
// lifecycle state machine's own panics surface as "no-panic" violations.
func RunFleetScenario(fs FleetScenario) *FleetResult {
	res := &FleetResult{}
	res.guard(fs, nil, func() { runFleet(fs, res) })
	return res
}

func runFleet(fs FleetScenario, res *FleetResult) {
	e := sim.NewEngine(fs.Seed)
	sys := fleet.New(e, fs.config())
	vio := func(name string, t sim.Time, format string, args ...any) {
		if len(res.Violations) < 32 {
			res.Violations = append(res.Violations, Violation{
				Invariant: name, Detail: fmt.Sprintf(format, args...), T: t,
			})
		}
	}

	// Live probes: occupancy and placement-state checks on every event.
	occ := map[int]int{} // node id -> job id
	sys.OnPlacement(func(ev fleet.PlacementEvent) {
		if ev.Acquire {
			if j, busy := occ[ev.Node]; busy {
				vio("fleet-no-double-book", ev.T,
					"node %d acquired by job %d while held by job %d", ev.Node, ev.Job, j)
			}
			occ[ev.Node] = ev.Job
			if ev.State != fleet.StateActive {
				vio("fleet-placement-active", ev.T,
					"job %d placed on node %d in state %v", ev.Job, ev.Node, ev.State)
			}
		} else {
			if j, busy := occ[ev.Node]; !busy || j != ev.Job {
				vio("fleet-no-double-book", ev.T,
					"node %d released by job %d but held by %v", ev.Node, ev.Job, occ[ev.Node])
			}
			delete(occ, ev.Node)
		}
	})

	r := sys.Run()
	res.R = r
	horizon := sim.Time(sys.Cfg.Horizon)

	// fleet-drain-terminal: every drain reaches a disposition; only the
	// horizon may cut one short, and completed drains take exactly the
	// migration cost.
	migr := sim.Duration(fleet.MigrationCost)
	for _, d := range sys.Drains {
		switch d.Outcome {
		case "spare":
			if d.End-d.Start != sim.Time(migr) {
				vio("fleet-drain-terminal", d.End,
					"drain of node %d completed in %v, want %v", d.Node, d.End-d.Start, migr)
			}
		case "failed":
			if d.End-d.Start > sim.Time(migr) {
				vio("fleet-drain-terminal", d.End,
					"drain of node %d marked failed after the full window %v", d.Node, migr)
			}
		case "cut":
			if d.Start+sim.Time(migr) <= horizon {
				vio("fleet-drain-terminal", d.End,
					"drain of node %d cut at %v but had room to finish by %v", d.Node, d.End, horizon)
			}
		default:
			vio("fleet-drain-terminal", d.End, "drain of node %d has outcome %q", d.Node, d.Outcome)
		}
	}

	// fleet-conserve: node-time is fully attributed across lifecycle states,
	// and the pool census agrees with the per-node states.
	var total int64
	for _, ns := range sys.StateNS {
		total += ns
	}
	if want := int64(horizon) * int64(fs.Nodes); total != want {
		vio("fleet-conserve", horizon, "state time %d ns, want %d ns (fleet %d × horizon)", total, want, fs.Nodes)
	}
	if sys.BusyNS+sys.FreeNS != sys.StateNS[fleet.StateActive] {
		vio("fleet-conserve", horizon, "busy %d + free %d != active %d",
			sys.BusyNS, sys.FreeNS, sys.StateNS[fleet.StateActive])
	}
	spares := 0
	for _, n := range sys.Nodes {
		if n.State == fleet.StateSpare {
			spares++
		}
		if n.Job != nil && n.State != fleet.StateActive && n.State != fleet.StateCordoned {
			vio("fleet-conserve", horizon, "node %d holds job %d in state %v", n.ID, n.Job.ID, n.State)
		}
	}
	if sys.PoolSize() != spares {
		vio("fleet-conserve", horizon, "pool count %d but %d nodes in spare state", sys.PoolSize(), spares)
	}

	// fleet-job-terminal: every submitted job ends with a reason and
	// coherent progress accounting.
	for _, j := range sys.Jobs {
		if j.Reason == "" {
			vio("fleet-job-terminal", horizon, "job %d (%v) has no terminal reason", j.ID, j.State)
		}
		if int64(j.Done) != j.UsefulNS {
			vio("fleet-job-terminal", horizon, "job %d: done %d != useful %d", j.ID, int64(j.Done), j.UsefulNS)
		}
		if j.Done > j.Spec.Work {
			vio("fleet-job-terminal", horizon, "job %d: done %v exceeds work %v", j.ID, j.Done, j.Spec.Work)
		}
		if j.State == fleet.JobDone && j.Done != j.Spec.Work {
			vio("fleet-job-terminal", horizon, "job %d done with %v of %v complete", j.ID, j.Done, j.Spec.Work)
		}
	}
}

// FleetSummary aggregates a sweep of N seeded fleet scenarios.
type FleetSummary struct {
	sweepHead[*FleetResult]

	JobsCompleted int `json:"jobs_completed"`
	JobsRejected  int `json:"jobs_rejected"`
	Interrupts    int `json:"interrupts"`
	DrainsRun     int `json:"drains"`
	AutoScaled    int `json:"scenarios_autoscaled"`
	FIFORuns      int `json:"scenarios_fifo"`
}

func (s *FleetSummary) header() *sweepHead[*FleetResult] { return &s.sweepHead }

func (s *FleetSummary) add(r *FleetResult) {
	if r.R != nil {
		s.JobsCompleted += r.R.JobsCompleted
		s.JobsRejected += r.R.JobsRejected
		s.Interrupts += r.R.Interrupts
		s.DrainsRun += r.R.Drains
	}
	if r.Scenario.Auto {
		s.AutoScaled++
	}
	if r.Scenario.FIFO {
		s.FIFORuns++
	}
}

func (s *FleetSummary) writeTallies(w io.Writer) {
	fmt.Fprintf(w, "  outcomes: %d jobs completed, %d rejected, %d interrupts, %d drains\n",
		s.JobsCompleted, s.JobsRejected, s.Interrupts, s.DrainsRun)
	fmt.Fprintf(w, "  coverage: %d/%d autoscaled, %d/%d FIFO\n",
		s.AutoScaled, s.Checked, s.FIFORuns, s.Checked)
}
