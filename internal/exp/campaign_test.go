package exp

import (
	"reflect"
	"testing"

	"ibmig/internal/npb"
)

func quickCampaign(failures int) CampaignSpec {
	return CampaignSpec{Kernel: npb.LU, Scale: QuickScale, Failures: failures}
}

func arm(t *testing.T, cr *CampaignResult, name string) *StrategyResult {
	t.Helper()
	for i := range cr.Results {
		if cr.Results[i].Strategy == name {
			return &cr.Results[i]
		}
	}
	t.Fatalf("campaign has no %q arm (have %+v)", name, cr.Results)
	return nil
}

func TestCampaignDeterministicAndSlotStable(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(1)
	a := RunCampaign(quickCampaign(2), nil)
	SetParallelism(4)
	b := RunCampaign(quickCampaign(2), nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("campaign differs across parallelism:\n  %+v\n  %+v", a, b)
	}
	if a.BaselineNS <= 0 {
		t.Fatalf("baseline = %d ns, want > 0", a.BaselineNS)
	}
}

func TestCrossoverMigrationVsCR(t *testing.T) {
	// The crossover argument end to end. One well-predicted failure: the
	// proactive policy migrates ahead of it and beats reactive CR, which pays
	// checkpoint overhead plus restart rework. A burst of failures where only
	// the first is predicted: the proactive job dies with the first
	// unpredicted death (it holds no checkpoint), while reactive CR restarts
	// through every one and finishes.
	one := RunCampaign(quickCampaign(1), nil)
	pro, rea := arm(t, one, "proactive"), arm(t, one, "reactive-cr")
	if !pro.Completed || pro.Migrations != 1 {
		t.Fatalf("proactive under 1 predicted failure: %+v, want a completed migration", pro)
	}
	if !rea.Completed || rea.ReactiveRestarts+rea.Fallbacks == 0 {
		t.Fatalf("reactive-cr under 1 failure: %+v, want completion via restart", rea)
	}
	if pro.GoodputPct <= rea.GoodputPct {
		t.Fatalf("1 predicted failure: proactive goodput %.1f%% not above reactive %.1f%%",
			pro.GoodputPct, rea.GoodputPct)
	}

	burst := RunCampaign(quickCampaign(3), nil)
	pro, rea = arm(t, burst, "proactive"), arm(t, burst, "reactive-cr")
	if !pro.JobLost || pro.GoodputPct != 0 {
		t.Fatalf("proactive under a 3-failure burst: %+v, want the job lost", pro)
	}
	if !rea.Completed {
		t.Fatalf("reactive-cr under a 3-failure burst: %+v, want completion", rea)
	}
	if rea.GoodputPct <= pro.GoodputPct {
		t.Fatalf("burst: reactive goodput %.1f%% not above proactive %.1f%%",
			rea.GoodputPct, pro.GoodputPct)
	}
}

func TestCrossoverSweepOrdersResults(t *testing.T) {
	out := CrossoverSweep(quickCampaign(0), []int{1, 3})
	if len(out) != 2 || out[0].Spec.Failures != 1 || out[1].Spec.Failures != 3 {
		t.Fatalf("sweep shape wrong: %+v", out)
	}
}

func TestCorrelatedRackFailure(t *testing.T) {
	// A predicted failure whose whole rack dies: proactive vacates the victim
	// but the rack peer's ranks have no checkpoint to restart from — job
	// lost. Adaptive pairs the same migration with a periodic-checkpoint
	// backstop and survives the peer's death.
	spec := quickCampaign(1)
	spec.Correlated = true
	res := RunCampaign(spec, nil)
	pro, ada := arm(t, res, "proactive"), arm(t, res, "adaptive")
	if !pro.JobLost {
		t.Fatalf("proactive under a rack failure: %+v, want the job lost", pro)
	}
	// The migrate decision may be overtaken by the kill (e.g. queued behind
	// an in-flight periodic checkpoint), so only the backstop is guaranteed.
	if !ada.Completed || ada.ReactiveRestarts == 0 {
		t.Fatalf("adaptive under a rack failure: %+v, want completion via reactive restart", ada)
	}
	if ada.NodeSecondsLost <= 0 {
		t.Fatalf("adaptive NodeSecondsLost = %v, want > 0", ada.NodeSecondsLost)
	}
}

func TestCampaignBestPicksHighestGoodput(t *testing.T) {
	res := RunCampaign(quickCampaign(1), nil)
	best := res.Best()
	if best == nil {
		t.Fatal("no completed arm")
	}
	for i := range res.Results {
		if r := &res.Results[i]; r.Completed && r.GoodputPct > best.GoodputPct {
			t.Fatalf("Best() returned %s (%.1f%%), but %s has %.1f%%",
				best.Strategy, best.GoodputPct, r.Strategy, r.GoodputPct)
		}
	}
}
