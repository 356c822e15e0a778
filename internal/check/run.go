package check

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/core"
	"ibmig/internal/cr"
	"ibmig/internal/fault"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
	"ibmig/internal/strategy"
)

// checkDeadline is the per-phase watchdog deadline for DST runs: far above
// any healthy ClassS/W phase (milliseconds to ~1 s), far below the default
// 2 min so dead-node stalls resolve quickly across a 500-scenario sweep.
const checkDeadline = 10 * time.Second

// checkCkptInterval compresses the periodic-checkpoint cadence of reactive
// strategies into the millisecond-scale ClassS/W runs the DST envelope uses,
// so the policy-checkpoint loop actually fires inside a scenario.
const checkCkptInterval = 250 * time.Millisecond

// checkRackSize groups DST cluster nodes into two-node racks so rack-fail
// scenarios take a correlated bystander down with the named victim.
const checkRackSize = 2

// pollBudget bounds, in sim time, how long the controller waits after the
// trigger resolves for the job to finish or be declared lost. Across the
// 500-scenario corpus under all four strategies the longest such wait is
// about 2*checkDeadline past the trigger for class S (phase-deadline
// recoveries) and 6x the estimated runtime for class W (restarts from a
// checkpoint); the budget is at least 4.5x every one of them, so it only
// ends runs that would never end.
func pollBudget(estimated sim.Duration) sim.Duration {
	return 20*estimated + 10*checkDeadline
}

// Result is the outcome of one scenario run — everything cmd/protocheck
// reports and the JSON artifact records.
type Result struct {
	outcome[Scenario]

	Attempts         int    `json:"attempts"`
	Completed        int    `json:"completed"`
	Aborted          int    `json:"aborted"`
	Retries          int    `json:"retries"`
	Fallbacks        int    `json:"fallbacks"`
	ReactiveRestarts int    `json:"reactive_restarts,omitempty"`
	ReplicaRestores  int    `json:"replica_restores,omitempty"`
	SpareExhaustions int    `json:"spare_exhaustions,omitempty"`
	PolicyCkpts      int    `json:"policy_ckpts,omitempty"`
	JobLost          bool   `json:"job_lost,omitempty"`
	AppDone          bool   `json:"app_done"`
	Faults           int    `json:"faults"`
	Events           uint64 `json:"events"`
	SimNS            int64  `json:"sim_ns"`

	// Flight is the flight recorder's tail: the last telemetry events before
	// the run ended. Populated on failure, or always under SetFlightDump.
	Flight []string `json:"flight,omitempty"`
}

// flightDump forces Result.Flight to be populated even on passing runs
// (protocheck -flight-dump). Set before a sweep starts.
var flightDump atomic.Bool

// SetFlightDump toggles unconditional flight-tail reporting.
func SetFlightDump(on bool) { flightDump.Store(on) }

func (r *Result) describe(w io.Writer) {
	fmt.Fprintf(w, "scenario: %s\n", r.Spec)
	fmt.Fprintf(w, "  attempts=%d completed=%d aborted=%d retries=%d fallbacks=%d job_lost=%v app_done=%v\n",
		r.Attempts, r.Completed, r.Aborted, r.Retries, r.Fallbacks, r.JobLost, r.AppDone)
	if len(r.Flight) > 0 {
		fmt.Fprintln(w, "  flight recorder tail:")
		for _, line := range r.Flight {
			fmt.Fprintf(w, "    %s\n", line)
		}
	}
}

// Summary aggregates a sweep of N seeded migration scenarios.
type Summary struct {
	sweepHead[*Result]

	Completed        int `json:"migrations_completed"`
	Aborted          int `json:"migrations_aborted"`
	Retries          int `json:"spare_retries"`
	Fallbacks        int `json:"cr_fallbacks"`
	ReactiveRestarts int `json:"reactive_restarts"`
	ReplicaRestores  int `json:"replica_restores"`
	SpareExhaustions int `json:"spare_exhaustions"`
	PolicyCkpts      int `json:"policy_ckpts"`
	JobsLost         int `json:"jobs_lost"`
	Faulted          int `json:"scenarios_with_faults"`
	Perturbed        int `json:"scenarios_perturbed"`

	TotalEvents uint64 `json:"total_events"`
}

func (s *Summary) header() *sweepHead[*Result] { return &s.sweepHead }

func (s *Summary) add(r *Result) {
	s.Completed += r.Completed
	s.Aborted += r.Aborted
	s.Retries += r.Retries
	s.Fallbacks += r.Fallbacks
	s.ReactiveRestarts += r.ReactiveRestarts
	s.ReplicaRestores += r.ReplicaRestores
	s.SpareExhaustions += r.SpareExhaustions
	s.PolicyCkpts += r.PolicyCkpts
	s.TotalEvents += r.Events
	if r.JobLost {
		s.JobsLost++
	}
	if r.Faults > 0 {
		s.Faulted++
	}
	if r.Scenario.Perturb != 0 {
		s.Perturbed++
	}
}

func (s *Summary) writeTallies(w io.Writer) {
	fmt.Fprintf(w, "  outcomes: %d completed, %d aborted, %d spare retries, %d CR fallbacks, %d jobs lost\n",
		s.Completed, s.Aborted, s.Retries, s.Fallbacks, s.JobsLost)
	fmt.Fprintf(w, "  recovery: %d reactive restarts, %d replica restores, %d spare exhaustions, %d policy ckpts\n",
		s.ReactiveRestarts, s.ReplicaRestores, s.SpareExhaustions, s.PolicyCkpts)
	fmt.Fprintf(w, "  coverage: %d/%d scenarios faulted, %d/%d perturbed, %d kernel events\n",
		s.Faulted, s.Checked, s.Perturbed, s.Checked, s.TotalEvents)
}

// annotate attaches protocol context to the result: per-violation, the spans
// open at the violation's timestamp and the flight recorder's tail (the
// telemetry leading up to the breach); and, on failure or under
// SetFlightDump, the run-level flight tail.
func annotate(res *Result, pr *probe) {
	for i := range res.Violations {
		v := &res.Violations[i]
		if spans := pr.col.ActiveAt(v.T); len(spans) > 0 {
			if len(spans) > 6 {
				spans = spans[:6]
			}
			v.Spans = spans
		}
		v.Flight = pr.fr.Strings(8)
	}
	if res.Failed() || flightDump.Load() {
		res.Flight = pr.fr.Strings(24)
	}
}

// victim resolves a fault role to a concrete node name for this cluster.
func victim(role Role, c *cluster.Cluster, src string) string {
	switch role {
	case RoleSource:
		return src
	case RoleTarget:
		return c.Spares[0].Name
	case RoleSpare2:
		return c.Spares[1].Name
	case RoleBystander:
		for _, n := range c.Compute {
			if n.Name != src {
				return n.Name
			}
		}
	}
	return src
}

// RunScenario executes one scenario to completion and evaluates every
// registered invariant against the run. It never panics: a panic anywhere in
// the simulation is itself reported as a "no-panic" violation.
func RunScenario(sc Scenario) *Result {
	res := &Result{Faults: len(sc.Faults)}
	pr := &probe{sc: sc}
	res.guard(sc, &pr.endT, func() { runScenario(sc, pr, res) })
	return res
}

func runScenario(sc Scenario, pr *probe, res *Result) {
	e := sim.NewEngine(sc.Seed)
	e.SetTracer(&pr.clock)
	if sc.Perturb != 0 {
		e.EnablePerturbation(sc.Perturb)
	}
	pr.col = obs.New()
	pr.fr = obs.NewFlightRecorder(0)
	pr.col.AttachFlight(pr.fr)
	e.SetObsData(pr.col)
	pr.c = cluster.New(e, cluster.Config{
		ComputeNodes: sc.Ranks / sc.PPN,
		SpareNodes:   sc.Spares,
		PVFSServers:  2, // the CR-fallback image must survive node deaths
		RackSize:     checkRackSize,
	})
	w := npb.New(sc.Kernel, sc.Class, sc.Ranks)
	npbRes := npb.NewResult(sc.Ranks)
	strat, _ := strategy.ByName(sc.Strategy) // Valid() vetted the name
	opts := core.Options{
		Hash:          true,
		PhaseDeadline: checkDeadline,
		AutoPolicy:    true,
		Strategy:      strat,
		CkptInterval:  checkCkptInterval,
	}
	pr.fw = core.Launch(pr.c, w, sc.PPN, npbRes, opts)
	pr.jm = pr.fw.JobManager()
	pr.fw.OnPhase(func(p *sim.Proc, seq, phase int) {
		pr.phases = append(pr.phases, phaseEntry{T: p.Now(), Seq: seq, Phase: phase})
	})

	src := pr.c.Compute[len(pr.c.Compute)/2].Name
	pr.inj = fault.NewInjector(pr.c)
	pr.inj.Bind(pr.fw)
	for _, f := range sc.Faults {
		spec := fault.Spec{Kind: f.Kind}
		switch f.Kind {
		case fault.FTBDrop:
			spec.Event = f.Event
		case fault.FTBDelay:
			spec.Event = f.Event
			spec.Delay = f.delay()
		default:
			spec.Node = victim(f.Role, pr.c, src)
		}
		if f.AtMS > 0 {
			pr.inj.At(sim.Time(time.Duration(f.AtMS)*time.Millisecond), spec)
		} else {
			pr.inj.AtPhase(0, f.Phase, spec)
		}
	}

	e.Spawn("check.ctl", func(p *sim.Proc) {
		pr.fw.W.WaitReady(p)
		if sc.Ckpt {
			_, pr.ckptErr = pr.fw.Checkpoint(p, cr.PVFS)
		}
		p.Sleep(w.EstimatedRuntime() / 100 * sim.Duration(sc.TrigPct))
		pr.fw.TriggerMigration(p, src).Wait(p)
		pr.trigFired = true
		// Under an auto policy the job can still be lost (or saved) after the
		// trigger resolves — a deferred node death handled once the migration
		// finishes — so poll for either terminal state instead of committing
		// to WaitDone. A job that reaches neither within the poll budget has
		// fallen into a recovery gap: stop without ctlDone, so liveness
		// reports it with the flight recorder's tail.
		giveUp := p.Now().Add(pollBudget(w.EstimatedRuntime()))
		for !pr.fw.W.Done() && !pr.jm.JobLost() {
			if p.Now() >= giveUp {
				e.Stop()
				return
			}
			p.Sleep(time.Millisecond)
		}
		pr.appDone = pr.fw.W.Done()
		pr.ctlDone = true
		e.Stop()
	})
	pr.runErr = e.Run()
	pr.endT = e.Now()
	e.Shutdown()
	pr.col.CloseOpen(pr.endT)

	for _, inv := range Registry() {
		res.Violations = append(res.Violations, inv.Check(pr)...)
	}
	annotate(res, pr)

	for _, a := range pr.fw.Attempts {
		if a.Completed {
			res.Completed++
		}
		if a.Aborted {
			res.Aborted++
		}
	}
	res.Attempts = len(pr.fw.Attempts)
	res.Retries = pr.jm.SpareRetries
	res.Fallbacks = pr.jm.CRFallbacks
	res.ReactiveRestarts = pr.jm.ReactiveRestarts
	res.ReplicaRestores = pr.jm.ReplicaRestores
	res.SpareExhaustions = pr.jm.SpareExhaustions
	res.PolicyCkpts = pr.jm.PolicyCheckpoints
	res.JobLost = pr.jm.JobLost()
	res.AppDone = pr.appDone
	res.Events = e.Events()
	res.SimNS = int64(pr.endT)
}
