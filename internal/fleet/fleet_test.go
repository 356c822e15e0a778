package fleet

import (
	"testing"
	"time"

	"ibmig/internal/sim"
)

func runCfg(cfg Config) (*System, *Result) {
	e := sim.NewEngine(cfg.Seed)
	s := New(e, cfg)
	return s, s.Run()
}

func TestRunDeterministic(t *testing.T) {
	cfg := Config{Seed: 3, Jobs: 40, AutoScale: true}
	_, a := runCfg(cfg)
	_, b := runCfg(cfg)
	if a.Fingerprint != b.Fingerprint {
		t.Fatalf("same config, different fingerprints: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if *a != *b {
		t.Fatalf("same config, different economics: %+v vs %+v", a, b)
	}
	cfg.Seed = 4
	if _, c := runCfg(cfg); c.Fingerprint == a.Fingerprint {
		t.Fatal("different seeds should diverge")
	}
}

func TestScheduleSharedAcrossPolicies(t *testing.T) {
	base := Config{Seed: 5}
	fifo, backfill := base, base
	fifo.Policy = PolicyFIFO
	backfill.Policy = PolicyBackfill
	a, b := BuildSchedule(fifo), BuildSchedule(backfill)
	if len(a.Fails) != len(b.Fails) || len(a.Alarms) != len(b.Alarms) {
		t.Fatal("policy must not perturb the failure realization")
	}
	for i := range a.Fails {
		if a.Fails[i] != b.Fails[i] {
			t.Fatalf("fail %d differs across policy arms", i)
		}
	}
	wa, wb := BuildWorkload(fifo), BuildWorkload(backfill)
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("job %d differs across policy arms", i)
		}
	}
}

func TestConservationAndEconomics(t *testing.T) {
	for _, pol := range []Policy{PolicyFIFO, PolicyBackfill} {
		cfg := Config{Seed: 11, Policy: pol, Jobs: 60, NodeMTBF: 3 * day, Horizon: 10 * day}
		s, res := runCfg(cfg)
		checkConservation(t, s, s.Cfg.Horizon)
		if res.GoodputPct <= 0 || res.GoodputPct > 100 {
			t.Errorf("%s: goodput %.2f%% out of range", pol, res.GoodputPct)
		}
		if res.Interrupts == 0 {
			t.Errorf("%s: 3-day MTBF over 10 days must interrupt something", pol)
		}
		if res.Drains == 0 {
			t.Errorf("%s: 70%% coverage must drain something", pol)
		}
		if res.JobsCompleted == 0 {
			t.Errorf("%s: no jobs completed", pol)
		}
		if res.MTTIHours <= 0 || res.MTTRHours <= 0 {
			t.Errorf("%s: MTTI %.2fh / MTTR %.2fh not populated", pol, res.MTTIHours, res.MTTRHours)
		}
	}
}

// TestBackfillBeatsFIFOWait: with wide heads blocking a FIFO queue, EASY
// backfill must not lengthen the mean queue wait on a congested fleet.
func TestBackfillBeatsFIFOWait(t *testing.T) {
	base := Config{Seed: 2, Nodes: 32, Jobs: 80, MaxWidth: 24, MeanWork: 12 * time.Hour, Horizon: 7 * day}
	fifo, bf := base, base
	fifo.Policy = PolicyFIFO
	bf.Policy = PolicyBackfill
	_, rf := runCfg(fifo)
	_, rb := runCfg(bf)
	if rb.WaitMeanH > rf.WaitMeanH {
		t.Errorf("backfill mean wait %.2fh worse than FIFO %.2fh", rb.WaitMeanH, rf.WaitMeanH)
	}
	if rb.JobsCompleted < rf.JobsCompleted {
		t.Errorf("backfill completed %d < FIFO %d", rb.JobsCompleted, rf.JobsCompleted)
	}
}

// TestPlacementsNeverOnNonActive: the placement probe must only ever see
// acquisitions of active nodes (cordoned/draining/spare nodes are not
// schedulable) — the core fleet invariant.
func TestPlacementsNeverOnNonActive(t *testing.T) {
	cfg := Config{Seed: 13, Jobs: 50, NodeMTBF: 2 * day, Horizon: 14 * day, AutoScale: true}
	s, _ := runCfg(cfg)
	for _, ev := range s.Placements {
		if ev.Acquire && ev.State != StateActive {
			t.Fatalf("job %d acquired node %d in state %v at %v", ev.Job, ev.Node, ev.State, ev.T)
		}
	}
	if len(s.Placements) == 0 {
		t.Fatal("no placements recorded")
	}
}

// TestDrainsComplete: every drain record ends with a disposition, and
// completed drains take exactly the migration cost.
func TestDrainsComplete(t *testing.T) {
	cfg := Config{Seed: 17, Jobs: 50, NodeMTBF: 2 * day, Horizon: 14 * day}
	s, _ := runCfg(cfg)
	if len(s.Drains) == 0 {
		t.Fatal("no drains at 70% coverage over 14 days")
	}
	for i, d := range s.Drains {
		switch d.Outcome {
		case "spare", "failed":
			if got := sim.Duration(d.End - d.Start); got != MigrationCost {
				t.Errorf("drain %d: took %v, want %v", i, got, MigrationCost)
			}
		case "cut":
			if sim.Time(s.Cfg.Horizon)-d.Start > sim.Time(MigrationCost) {
				t.Errorf("drain %d marked cut but started %v before the horizon", i, d.Start)
			}
		default:
			t.Errorf("drain %d: no outcome", i)
		}
	}
}

// TestAutoscaleTracksFailureRate: with a hot fleet (short MTBF) the
// autoscaler must raise the pool target above the same fleet's cold (long
// MTBF) target.
func TestAutoscaleTracksFailureRate(t *testing.T) {
	hot := Config{Seed: 19, Nodes: 256, NodeMTBF: 1 * day, RepairMean: 12 * time.Hour, AutoScale: true, Horizon: 14 * day}
	cold := hot
	cold.NodeMTBF = 20 * day
	sh, _ := runCfg(hot)
	sc, _ := runCfg(cold)
	if sh.SpareTarget() <= sc.SpareTarget() {
		t.Errorf("hot fleet target %d should exceed cold fleet target %d", sh.SpareTarget(), sc.SpareTarget())
	}
}

func TestRejectTooWide(t *testing.T) {
	cfg := Config{Seed: 23, Nodes: 8, RackSize: 4, MaxWidth: 8, Jobs: 30}
	s, res := runCfg(cfg)
	if res.JobsRejected == 0 {
		t.Skip("seed produced no 8-wide job; widen MaxWidth")
	}
	for _, j := range s.Jobs {
		if j.State == JobRejected && j.Reason != "too-wide" {
			t.Errorf("job %d rejected with reason %q", j.ID, j.Reason)
		}
	}
}

func TestWorkloadShape(t *testing.T) {
	cfg := Config{Seed: 29, Jobs: 200}.withDefaults()
	w := BuildWorkload(cfg)
	if len(w) != 200 {
		t.Fatalf("want 200 jobs, got %d", len(w))
	}
	last := sim.Time(-1)
	for i, js := range w {
		if js.ID != i {
			t.Errorf("job %d has ID %d", i, js.ID)
		}
		if js.Submit < last {
			t.Error("workload not sorted by submit time")
		}
		last = js.Submit
		if js.Width < 1 || js.Width > cfg.MaxWidth {
			t.Errorf("job %d width %d out of range", i, js.Width)
		}
		if js.Work < cfg.MeanWork/8 || js.Work > 4*cfg.MeanWork {
			t.Errorf("job %d work %v out of clamp", i, js.Work)
		}
	}
}

func TestCheckpointArithmetic(t *testing.T) {
	s, _ := func() (*System, *Result) {
		e := sim.NewEngine(1)
		sys := New(e, Config{})
		return sys, nil
	}()
	tau, delta := ckptInterval, ckptCost
	// wallFor: exactly one interval needs no checkpoint; one interval plus a
	// hair needs one.
	if got := s.wallFor(tau); got != tau {
		t.Errorf("wallFor(τ) = %v, want %v", got, tau)
	}
	if got := s.wallFor(tau + 1); got != tau+1+delta {
		t.Errorf("wallFor(τ+1) = %v, want %v", got, tau+1+delta)
	}
	if got := s.wallFor(3 * tau); got != 3*tau+2*delta {
		t.Errorf("wallFor(3τ) = %v, want %v", got, 3*tau+2*delta)
	}
	// cycleSplit: the identity d = kτ + kδ + o must hold for any d.
	for _, d := range []int64{0, 1, int64(tau), int64(tau + delta), int64(tau+delta) + 5, 7*int64(tau+delta) + int64(tau) + 3} {
		k, o := s.cycleSplit(d)
		if k*int64(tau+delta)+o != d {
			t.Errorf("cycleSplit(%d): k=%d o=%d does not reassemble", d, k, o)
		}
		if o < 0 || o >= int64(tau+delta) {
			t.Errorf("cycleSplit(%d): tail %d out of range", d, o)
		}
	}
}
