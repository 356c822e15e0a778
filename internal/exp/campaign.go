package exp

// Head-to-head fault-tolerance campaigns: every registered strategy runs the
// SAME job under the SAME deterministic failure schedule (a mix of predicted
// and unpredicted node deaths, optionally correlated across racks, optionally
// with a flapping link) and the campaign reports, per strategy, whether the
// job survived, how much goodput it retained against the failure-free
// baseline, its mean time to recover, and the node-time the failures cost.
//
// This is the experiment behind the migration-vs-CR crossover argument: with
// well-predicted failures the proactive policy wins outright (zero rework, no
// steady-state checkpoint tax); once failures start arriving unpredicted the
// proactive job dies while reactive checkpoint/restart limps through — and
// the adaptive hedge takes the best of both.

import (
	"fmt"
	"sort"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/core"
	"ibmig/internal/fault"
	"ibmig/internal/ftb"
	"ibmig/internal/health"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/sim"
	"ibmig/internal/strategy"
)

// CampaignSpec configures one campaign. Zero durations scale off the
// workload's estimated runtime R, so the same spec shape works at any Scale.
type CampaignSpec struct {
	Kernel npb.Kernel
	Scale  Scale

	// Failures is the number of distinct compute-node deaths to inject,
	// spread over the middle of the run.
	Failures int
	// Lead is the warning time a predicted failure gives (sensor warnings
	// plus a predictor event arrive Lead before the kill). Default R/20.
	Lead sim.Duration
	// MinPredictGap decides which failures are predicted: a failure is
	// announced only if it arrives at least this long after the previous
	// one (back-to-back deaths outrun the predictor). Default 35% of R.
	MinPredictGap sim.Duration
	// CkptInterval is the periodic-checkpoint cadence offered to strategies
	// that take one (reactive-cr, adaptive). Default R/5.
	CkptInterval sim.Duration

	// Correlated widens every kill to the victim's whole rack.
	Correlated bool
	// FlakyLink flaps the HCA of an uninvolved compute node mid-run, on top
	// of the failure schedule.
	FlakyLink bool

	RackSize int // nodes per rack (default 2)
	Spares   int // hot spares (default Failures+1; doubled when Correlated)

	// Strategies names the arms; default strategy.Names() (all of them).
	Strategies []string
}

func (spec CampaignSpec) withDefaults() CampaignSpec {
	if spec.RackSize == 0 {
		spec.RackSize = 2
	}
	if spec.Spares == 0 {
		spec.Spares = spec.Failures + 1
		if spec.Correlated {
			spec.Spares *= 2
		}
	}
	if len(spec.Strategies) == 0 {
		spec.Strategies = strategy.Names()
	}
	return spec
}

// StrategyResult is one arm of a campaign: one strategy's outcome under the
// shared failure schedule.
type StrategyResult struct {
	Strategy  string `json:"strategy"`
	Completed bool   `json:"completed"`
	JobLost   bool   `json:"job_lost"`

	// AppNS is the job's wall-clock span (launch to finish, or to loss).
	AppNS int64 `json:"app_ns"`
	// GoodputPct is baseline/actual runtime ×100 — the fraction of the
	// machine's time that produced application progress. 0 when the job is
	// lost.
	GoodputPct float64 `json:"goodput_pct"`
	// MTTRNS is the mean duration of successful recovery actions
	// (migrations, restarts, replica restores, in-place resumes).
	MTTRNS int64 `json:"mttr_ns"`
	// ReworkNS totals the recomputed work recoveries implied (time since
	// the restored checkpoint or replica).
	ReworkNS int64 `json:"rework_ns"`
	// NodeSecondsLost integrates dead-node time over the run: for every
	// killed node, the seconds between its death and the end of the run.
	NodeSecondsLost float64 `json:"node_seconds_lost"`

	Migrations       int   `json:"migrations"`
	Retries          int   `json:"retries"`
	Fallbacks        int   `json:"fallbacks"`
	ReactiveRestarts int   `json:"reactive_restarts"`
	ReplicaRestores  int   `json:"replica_restores"`
	ReplicasStaged   int   `json:"replicas_staged"`
	PolicyCkpts      int   `json:"policy_ckpts"`
	CkptFailures     int   `json:"ckpt_failures"`
	FTDropped        int64 `json:"ft_dropped"`
}

// CampaignResult is the full A/B: the failure-free baseline plus one
// StrategyResult per arm, in CampaignSpec.Strategies order.
type CampaignResult struct {
	Spec       CampaignSpec     `json:"spec"`
	BaselineNS int64            `json:"baseline_ns"`
	Results    []StrategyResult `json:"results"`
}

// Best returns the completed arm with the highest goodput (nil if every arm
// lost the job).
func (cr *CampaignResult) Best() *StrategyResult {
	var best *StrategyResult
	for i := range cr.Results {
		r := &cr.Results[i]
		if r.Completed && (best == nil || r.GoodputPct > best.GoodputPct) {
			best = r
		}
	}
	return best
}

// ArmUpdate is one live rollup snapshot from a running campaign arm —
// what a telemetry consumer (cmd/obsserve's /stream) sees while the arms
// race, before any final StrategyResult exists.
type ArmUpdate struct {
	Strategy string `json:"strategy"`
	// SimNS is the arm's virtual elapsed time since the job became ready.
	SimNS int64 `json:"sim_ns"`
	// ProgressPct is the fraction of total rank-iterations finished, ×100.
	ProgressPct float64 `json:"progress_pct"`
	// GoodputSoFarPct is 100 × baseline × progress / elapsed: the goodput the
	// arm would score if it kept its current pace. 0 until a baseline exists.
	GoodputSoFarPct float64 `json:"goodput_pct"`
	// MTTRSoFarNS is the mean duration of the successful recoveries so far.
	MTTRSoFarNS int64 `json:"mttr_ns"`
	Attempts    int   `json:"attempts"`
	Migrations  int   `json:"migrations"`
	Restarts    int   `json:"restarts"`
	// Done marks the arm's final update (sent once, after the run ends).
	Done      bool `json:"done,omitempty"`
	Completed bool `json:"completed,omitempty"`
	JobLost   bool `json:"job_lost,omitempty"`
}

// armUpdateEvery is how many 1 ms control polls separate live rollups — a
// ~50 ms virtual-time cadence, frequent enough to watch and cheap enough to
// never matter.
const armUpdateEvery = 50

// armSnapshot assembles a live rollup from an arm's running state. Called on
// the arm's engine goroutine; everything it reads is engine-local.
func armSnapshot(name string, baselineNS int64, elapsed sim.Duration, fw *core.Framework, jm *core.JobManager, w npb.Workload, res *npb.Result) ArmUpdate {
	u := ArmUpdate{
		Strategy:   name,
		SimNS:      int64(elapsed),
		Attempts:   len(fw.Attempts),
		Migrations: jm.MigrationsDone,
		Restarts:   jm.ReactiveRestarts,
	}
	if total := w.Iterations * len(res.IterDone); total > 0 {
		done := 0
		for _, n := range res.IterDone {
			done += n
		}
		frac := float64(done) / float64(total)
		u.ProgressPct = 100 * frac
		if baselineNS > 0 && elapsed > 0 {
			u.GoodputSoFarPct = 100 * float64(baselineNS) * frac / float64(elapsed)
		}
	}
	var mttr int64
	recovered := 0
	for _, rec := range fw.Recoveries {
		if rec.Ok {
			recovered++
			mttr += int64(rec.End.Sub(rec.Start))
		}
	}
	if recovered > 0 {
		u.MTTRSoFarNS = mttr / int64(recovered)
	}
	return u
}

// RunCampaign runs the failure-free baseline and then every strategy arm (in
// parallel across engines, slot-stable) and returns the assembled comparison.
//
// update, if non-nil, receives a live rollup stream: while the arms run, each
// emits periodic ArmUpdates (progress, goodput-so-far, MTTR, attempts),
// ending with one Done update per arm. The baseline is measured first so
// goodput-so-far is computable from the first rollup. The callback is
// host-side bookkeeping on each arm's poll loop and cannot perturb the
// simulation, so the result is the same with or without it. update is called
// concurrently from the arm engines' goroutines and must be goroutine-safe.
func RunCampaign(spec CampaignSpec, update func(ArmUpdate)) *CampaignResult {
	spec = spec.withDefaults()
	out := &CampaignResult{Spec: spec, Results: make([]StrategyResult, len(spec.Strategies))}
	out.BaselineNS = int64(campaignBaseline(spec))
	tasks := make([]func(), 0, len(spec.Strategies))
	for i, name := range spec.Strategies {
		i, name := i, name
		tasks = append(tasks, func() {
			out.Results[i] = runArm(spec, name, out.BaselineNS, update)
		})
	}
	RunParallel(tasks...)
	for i := range out.Results {
		r := &out.Results[i]
		if r.Completed && r.AppNS > 0 {
			r.GoodputPct = 100 * float64(out.BaselineNS) / float64(r.AppNS)
		}
	}
	return out
}

// failureSchedule is the deterministic fault plan every arm shares: failure i
// kills victims[i] at ready+times[i]; predicted[i] failures announce
// themselves lead earlier.
type failureSchedule struct {
	victims   []string
	times     []sim.Duration
	predicted []bool
	lead      sim.Duration
}

// buildSchedule spreads Failures kills over the middle 40% of the estimated
// runtime, starting at 45%: t_i = R·(0.45 + 0.4·i/K). A failure is predicted
// when it trails its predecessor by at least MinPredictGap — so a single
// failure is always predicted, while a dense burst outruns the predictor.
func buildSchedule(spec CampaignSpec, c *cluster.Cluster, w npb.Workload) failureSchedule {
	R := w.EstimatedRuntime()
	K := spec.Failures
	step := 1
	if spec.Correlated {
		step = spec.RackSize // one victim per rack, so kills never overlap
	}
	if K*step >= len(c.Compute) {
		panic(fmt.Sprintf("exp: campaign wants %d victims (step %d) from %d compute nodes", K, step, len(c.Compute)))
	}
	s := failureSchedule{lead: spec.Lead}
	if s.lead == 0 {
		s.lead = R / 20
	}
	gapMin := spec.MinPredictGap
	if gapMin == 0 {
		gapMin = R * 35 / 100
	}
	prev := sim.Duration(0)
	for i := 0; i < K; i++ {
		t := R*45/100 + R*40/100*sim.Duration(i)/sim.Duration(K)
		s.victims = append(s.victims, c.Compute[(1+i*step)%len(c.Compute)].Name)
		s.times = append(s.times, t)
		s.predicted = append(s.predicted, t-prev >= gapMin)
		prev = t
	}
	return s
}

// CrossoverSweep runs one campaign per failure count under an otherwise
// identical spec — the migration-vs-CR crossover experiment. Returned results
// are in failureCounts order.
func CrossoverSweep(spec CampaignSpec, failureCounts []int) []*CampaignResult {
	out := make([]*CampaignResult, len(failureCounts))
	for i, k := range failureCounts {
		s := spec
		s.Failures = k
		out[i] = RunCampaign(s, nil)
	}
	return out
}

// FormatCrossover renders a CrossoverSweep as one table per failure count,
// with the winning arm starred — the crossover is visible as the star moving
// from the proactive row to the reactive one as failures densify.
func FormatCrossover(sweep []*CampaignResult) string {
	out := ""
	for i, cr := range sweep {
		if i > 0 {
			out += "\n"
		}
		mode := "independent"
		if cr.Spec.Correlated {
			mode = "correlated (rack)"
		}
		best := cr.Best()
		var tr [][]string
		for j := range cr.Results {
			r := &cr.Results[j]
			outcome := "LOST"
			if r.Completed {
				outcome = "completed"
			}
			name := r.Strategy
			if best != nil && r.Strategy == best.Strategy {
				name = "* " + name
			}
			tr = append(tr, []string{
				name,
				outcome,
				fmt.Sprintf("%.1f", r.GoodputPct),
				fmt.Sprintf("%.2f", time.Duration(r.MTTRNS).Seconds()),
				fmt.Sprintf("%.2f", time.Duration(r.ReworkNS).Seconds()),
				fmt.Sprintf("%.0f", r.NodeSecondsLost),
				fmt.Sprintf("%d/%d/%d", r.Migrations, r.ReactiveRestarts, r.ReplicaRestores),
				fmt.Sprintf("%d", r.PolicyCkpts),
			})
		}
		out += fmt.Sprintf("%d %s failure(s), baseline %.1fs\n", cr.Spec.Failures, mode,
			time.Duration(cr.BaselineNS).Seconds())
		out += metrics.Table(
			[]string{"strategy", "outcome", "goodput(%)", "MTTR(s)", "rework(s)", "node-s lost", "mig/rst/rep", "ckpts"}, tr)
	}
	return out
}

// campaignCluster builds the cluster every arm (and the baseline) shares.
func campaignCluster(spec CampaignSpec, e *sim.Engine) *cluster.Cluster {
	return cluster.New(e, cluster.Config{
		ComputeNodes: spec.Scale.Ranks / spec.Scale.PPN,
		SpareNodes:   spec.Spares,
		PVFSServers:  2,
		RackSize:     spec.RackSize,
	})
}

// campaignBaseline measures the failure-free, policy-free runtime on the
// identical cluster shape — the goodput denominator's numerator.
func campaignBaseline(spec CampaignSpec) sim.Duration {
	e := sim.NewEngine(spec.Scale.Seed)
	c := campaignCluster(spec, e)
	w := npb.New(spec.Kernel, spec.Scale.Class, spec.Scale.Ranks)
	res := npb.NewResult(spec.Scale.Ranks)
	fw := core.Launch(c, w, spec.Scale.PPN, res, core.Options{})
	var d sim.Duration
	e.Spawn("campaign.baseline", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		start := p.Now()
		fw.W.WaitDone(p)
		d = p.Now().Sub(start)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		panic("exp: campaign baseline: " + err.Error())
	}
	e.Shutdown()
	return d
}

// runArm runs one strategy against the shared failure schedule. When
// update is non-nil, the control loop emits an ArmUpdate every armUpdateEvery
// polls and a final Done update after the engine shuts down.
func runArm(spec CampaignSpec, name string, baselineNS int64, update func(ArmUpdate)) StrategyResult {
	strat, err := strategy.ByName(name)
	if err != nil {
		panic("exp: " + err.Error())
	}
	e := sim.NewEngine(spec.Scale.Seed)
	c := campaignCluster(spec, e)
	w := npb.New(spec.Kernel, spec.Scale.Class, spec.Scale.Ranks)
	res := npb.NewResult(spec.Scale.Ranks)
	opts := core.Options{
		AutoPolicy:    true,
		Strategy:      strat,
		PhaseDeadline: 10 * time.Second,
	}
	if strat.CheckpointInterval() > 0 {
		opts.CkptInterval = spec.CkptInterval
		if opts.CkptInterval == 0 {
			opts.CkptInterval = w.EstimatedRuntime() / 5
		}
	}
	fw := core.Launch(c, w, spec.Scale.PPN, res, opts)
	jm := fw.JobManager()
	sched := buildSchedule(spec, c, w)
	inj := fault.NewInjector(c)
	killedAt := map[string]sim.Time{}

	e.Spawn("campaign.faults", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		base := p.Now()
		mon := c.FTB.Connect(c.Login.Name, "campaign-monitor")
		type step struct {
			at sim.Time
			fn func(p *sim.Proc)
		}
		var steps []step
		for i := range sched.victims {
			node := sched.victims[i]
			killAt := base.Add(sched.times[i])
			if sched.predicted[i] {
				steps = append(steps, step{killAt.Add(-sched.lead), func(p *sim.Proc) {
					for j := 0; j < 2; j++ {
						mon.Publish(p, ftb.Event{
							Namespace: health.NamespaceIPMI,
							Name:      health.EventSensorWarn,
							Severity:  "WARN",
							Payload:   health.SensorReading{Node: node, Sensor: "campaign", Value: 1},
						})
					}
					mon.Publish(p, ftb.Event{
						Namespace: health.NamespacePred,
						Name:      health.EventFailurePredicted,
						Severity:  "WARN",
						Payload:   node,
					})
				}})
			}
			steps = append(steps, step{killAt, func(p *sim.Proc) {
				members := []string{node}
				kind := fault.NodeCrash
				if spec.Correlated {
					members = c.RackMembers(node)
					kind = fault.RackFail
				}
				for _, m := range members {
					if m != c.Login.Name && c.NodeAlive(m) {
						killedAt[m] = p.Now()
					}
				}
				inj.Apply(p, fault.Spec{Kind: kind, Node: node})
			}})
		}
		if spec.FlakyLink {
			// Flap a compute node no kill will touch, a third into the run.
			flapped := ""
			for _, n := range c.Compute {
				candidate := n.Name
				hit := false
				for _, v := range sched.victims {
					for _, m := range c.RackMembers(v) {
						hit = hit || m == candidate
					}
				}
				if !hit {
					flapped = candidate
					break
				}
			}
			if flapped != "" {
				steps = append(steps, step{base.Add(w.EstimatedRuntime() * 30 / 100), func(p *sim.Proc) {
					inj.Apply(p, fault.Spec{Kind: fault.LinkFlap, Node: flapped})
				}})
			}
		}
		sort.SliceStable(steps, func(i, j int) bool { return steps[i].at < steps[j].at })
		for _, st := range steps {
			if d := st.at.Sub(p.Now()); d > 0 {
				p.Sleep(d)
			}
			if fw.W.Done() || jm.JobLost {
				return
			}
			st.fn(p)
		}
	})

	var appNS int64
	e.Spawn("campaign.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		start := p.Now()
		polls := 0
		for !fw.W.Done() && !jm.JobLost {
			p.Sleep(time.Millisecond)
			if polls++; update != nil && polls%armUpdateEvery == 0 {
				update(armSnapshot(name, baselineNS, p.Now().Sub(start), fw, jm, w, res))
			}
		}
		appNS = int64(p.Now().Sub(start))
		e.Stop()
	})
	if err := e.Run(); err != nil {
		panic("exp: campaign arm " + name + ": " + err.Error())
	}
	endT := e.Now()
	e.Shutdown()

	r := StrategyResult{
		Strategy:         name,
		Completed:        fw.W.Done() && !jm.JobLost,
		JobLost:          jm.JobLost,
		AppNS:            appNS,
		Migrations:       jm.MigrationsDone,
		Retries:          jm.SpareRetries,
		Fallbacks:        jm.CRFallbacks,
		ReactiveRestarts: jm.ReactiveRestarts,
		ReplicaRestores:  jm.ReplicaRestores,
		ReplicasStaged:   jm.ReplicasStaged,
		PolicyCkpts:      jm.PolicyCheckpoints,
		CkptFailures:     jm.CkptFailures,
		FTDropped:        fw.W.FTDropped(),
	}
	var recovered int
	for _, rec := range fw.Recoveries {
		if !rec.Ok {
			continue
		}
		recovered++
		r.MTTRNS += int64(rec.End.Sub(rec.Start))
		r.ReworkNS += int64(rec.Rework)
	}
	if recovered > 0 {
		r.MTTRNS /= int64(recovered)
	}
	for _, t := range killedAt {
		r.NodeSecondsLost += endT.Sub(t).Seconds()
	}
	if update != nil {
		u := armSnapshot(name, baselineNS, sim.Duration(appNS), fw, jm, w, res)
		u.Done = true
		u.Completed = r.Completed
		u.JobLost = r.JobLost
		update(u)
	}
	return r
}
