package check

import (
	"reflect"
	"testing"
	"time"

	"ibmig/internal/fault"
	"ibmig/internal/npb"
	"ibmig/internal/strategy"
)

func TestSpecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		sc := Generate(seed)
		back, err := Parse(sc.String())
		if err != nil {
			t.Fatalf("seed %d: Parse(%q): %v", seed, sc.String(), err)
		}
		if !reflect.DeepEqual(sc, back) {
			t.Fatalf("seed %d: round trip\n  spec %q\n  got  %+v\n  want %+v", seed, sc.String(), back, sc)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		if a, b := Generate(seed), Generate(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %+v != %+v", seed, a, b)
		}
	}
}

func TestGeneratedScenariosValid(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		if err := Generate(seed).Valid(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestParseRejectsBadSpecs(t *testing.T) {
	for _, spec := range []string{
		"bogus=1",
		"r=7 ppn=2",                    // ppn does not divide ranks
		"k=BT r=8",                     // BT needs a square rank count
		"f=node-crash:other@2",         // bystander crash is out of envelope
		"f=ftb-drop:MIGRATE_REQUEST@1", // not a protocol event
		"f=node-crash:src@9",           // no phase 9
		"sp=1 f=disk-fail:spare2@2",    // no second spare
		"f=rack-fail:other@2",          // bystander rack failure out of envelope
		"sp=1 f=link-flap:spare2@3",    // no second spare to flap
		"strat=bogus",                  // unknown strategy
		"ckpt=false",                   // a flag takes no value
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted an invalid spec", spec)
		}
	}
}

func TestDefaultScenarioClean(t *testing.T) {
	res := RunScenario(Default())
	if res.Failed() {
		t.Fatalf("default scenario violates invariants: %v", res.Violations)
	}
	if res.Completed != 1 || !res.AppDone {
		t.Fatalf("default scenario: completed=%d appDone=%v, want 1/true", res.Completed, res.AppDone)
	}
}

func TestRunScenarioDeterministic(t *testing.T) {
	// The acceptance bar: the same scenario must produce the identical
	// result — including under faults and schedule perturbation.
	sc, err := Parse("seed=11 perturb=42 ckpt f=node-crash:tgt@2 f=ftb-delay:FTB_RESTART:50@3")
	if err != nil {
		t.Fatal(err)
	}
	a, b := RunScenario(sc), RunScenario(sc)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two runs differ:\n  %+v\n  %+v", a, b)
	}
}

func TestFaultedScenarioRecovers(t *testing.T) {
	// Target crash mid-transfer with two spares: the JM must burn the first
	// spare, retry on the second, and complete.
	sc, err := Parse("seed=3 f=node-crash:tgt@2")
	if err != nil {
		t.Fatal(err)
	}
	res := RunScenario(sc)
	if res.Failed() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Retries != 1 || res.Completed != 1 {
		t.Fatalf("retries=%d completed=%d, want 1/1", res.Retries, res.Completed)
	}
}

func TestSourceCrashWithCheckpointFallsBack(t *testing.T) {
	sc, err := Parse("seed=5 ckpt f=node-crash:src@2")
	if err != nil {
		t.Fatal(err)
	}
	res := RunScenario(sc)
	if res.Failed() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Fallbacks != 1 || res.JobLost || !res.AppDone {
		t.Fatalf("fallbacks=%d jobLost=%v appDone=%v, want 1/false/true", res.Fallbacks, res.JobLost, res.AppDone)
	}
}

// TestShrinkReducesToMinimalSpec seeds a known-bad scenario (a synthetic
// strict predicate stands in for a protocol bug: "fails" whenever the job is
// lost) buried in irrelevant spec fields, and requires the shrinker to strip
// it to the essential ≤3 fields: the src crash that kills the job.
func TestShrinkReducesToMinimalSpec(t *testing.T) {
	sc := Scenario{
		Seed: 99, Kernel: npb.BT, Class: npb.ClassW, Ranks: 9, PPN: 3,
		Spares: 3, TrigPct: 71, Ckpt: false, Perturb: 12345,
		Faults: []FaultSpec{
			{Kind: fault.FTBDelay, Event: "FTB_RESTART", DelayMS: 80, Phase: 3},
			{Kind: fault.NodeCrash, Role: RoleSource, Phase: 2},
			{Kind: fault.DiskFail, Role: RoleBystander, Phase: 1},
		},
	}
	if err := sc.Valid(); err != nil {
		t.Fatal(err)
	}
	fails := func(s Scenario) bool { return RunScenario(s).JobLost }
	if !fails(sc) {
		t.Fatal("seed scenario does not fail; test premise broken")
	}
	min := Shrink(sc, fails)
	if !fails(min) {
		t.Fatalf("shrunk scenario %q no longer fails", min)
	}
	if got := min.Fields(); got > 3 {
		t.Fatalf("shrunk to %d fields (%q), want <= 3", got, min)
	}
	hasCrash := false
	for _, f := range min.Faults {
		hasCrash = hasCrash || (f.Kind == fault.NodeCrash && f.Role == RoleSource)
	}
	if !hasCrash {
		t.Fatalf("shrunk spec %q lost the essential src-crash fault", min)
	}
}

func TestShrinkKeepsPassingScenario(t *testing.T) {
	sc := Generate(1)
	got := Shrink(sc, func(Scenario) bool { return false })
	if !reflect.DeepEqual(got, sc) {
		t.Fatalf("Shrink modified a passing scenario: %+v", got)
	}
}

func TestShrinkIsDeterministic(t *testing.T) {
	fails := func(s Scenario) bool {
		// Synthetic predicate: fails iff a tgt-crash fault is present.
		for _, f := range s.Faults {
			if f.Kind == fault.NodeCrash && f.Role == RoleTarget {
				return true
			}
		}
		return false
	}
	sc := Scenario{
		Seed: 4, Kernel: npb.SP, Class: npb.ClassS, Ranks: 16, PPN: 4,
		Spares: 3, TrigPct: 60, Ckpt: true,
		Faults: []FaultSpec{
			{Kind: fault.NodeCrash, Role: RoleTarget, Phase: 2},
			{Kind: fault.HCAFail, Role: RoleSpare2, Phase: 3},
		},
	}
	a, b := Shrink(sc, fails), Shrink(sc, fails)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("shrink nondeterministic: %q vs %q", a, b)
	}
	if a.Fields() != 1 || len(a.Faults) != 1 {
		t.Fatalf("want exactly the tgt-crash fault to survive, got %q", a)
	}
}

func TestSweepDeterministicAndSlotStable(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is seconds-long; skipped in -short")
	}
	a := Migration("").sweep(12, 1, nil)
	b := Migration("").sweep(12, 1, nil)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("sweep summaries differ:\n  %+v\n  %+v", a, b)
	}
	if a.Checked != 12 {
		t.Fatalf("checked %d, want 12", a.Checked)
	}
}

func TestVictimResolution(t *testing.T) {
	// A spot check through a real run: crashing RoleSpare2 must not disturb
	// the migration at all (the second spare is uninvolved unless a retry
	// needs it).
	sc, err := Parse("seed=8 f=node-crash:spare2@2")
	if err != nil {
		t.Fatal(err)
	}
	res := RunScenario(sc)
	if res.Failed() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.Completed != 1 || res.Aborted != 0 {
		t.Fatalf("completed=%d aborted=%d, want 1/0", res.Completed, res.Aborted)
	}
}

func TestStrategyMatrixHoldsInvariants(t *testing.T) {
	// Every registered strategy must hold every invariant on a slice of the
	// scenario space that exercises its distinctive machinery: a clean run, a
	// mid-transfer target crash, a checkpointed source crash, a correlated
	// rack failure, and a flapping link.
	specs := []string{
		"seed=2",
		"seed=3 f=node-crash:tgt@2",
		"seed=5 ckpt f=node-crash:src@2",
		"seed=7 sp=3 ckpt f=rack-fail:src@2",
		"seed=4 f=link-flap:src@2",
	}
	for _, strat := range strategy.Names() {
		for _, spec := range specs {
			sc, err := Parse(spec)
			if err != nil {
				t.Fatal(err)
			}
			sc.Strategy = strat
			res := RunScenario(sc)
			if res.Failed() {
				t.Errorf("%s under %s: violations: %v", spec, strat, res.Violations)
			}
		}
	}
}

func TestRackFailKillsWholeRack(t *testing.T) {
	// A rack failure at phase 2 takes the source AND its rack peer (a
	// bystander hosting unprotected ranks). With a prior checkpoint and three
	// spares the CR fallback must re-place every lost node and finish.
	sc, err := Parse("seed=7 sp=3 ckpt f=rack-fail:src@2")
	if err != nil {
		t.Fatal(err)
	}
	res := RunScenario(sc)
	if res.Failed() {
		t.Fatalf("violations: %v", res.Violations)
	}
	if res.JobLost || !res.AppDone {
		t.Fatalf("jobLost=%v appDone=%v, want false/true", res.JobLost, res.AppDone)
	}
	if res.Fallbacks+res.ReactiveRestarts == 0 {
		t.Fatalf("rack failure recovered without any restart (fallbacks=%d reactive=%d)",
			res.Fallbacks, res.ReactiveRestarts)
	}
}

func TestLinkFlapSurvivedWithoutHang(t *testing.T) {
	// A flapping source HCA mid-migration must never hang the run: the
	// attempt may abort and retry, but the driver terminates and the app
	// either finishes or the job is (legitimately) lost.
	for _, spec := range []string{"seed=4 f=link-flap:src@2", "seed=6 ckpt f=link-flap:tgt@1"} {
		sc, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		res := RunScenario(sc)
		if res.Failed() {
			t.Fatalf("%s: violations: %v", spec, res.Violations)
		}
		if !res.AppDone && !res.JobLost {
			t.Fatalf("%s: neither finished nor lost", spec)
		}
	}
}

// TestBystanderLinkFlapUnderEveryStrategy flaps the link of a compute node
// the migration does not involve, 300 ms into a 650 ms run (the outage
// delays the job by about 21 ms): under every strategy the
// fault-tolerant send path must retry through the outage, hold every
// invariant, and reach a terminal outcome.
func TestBystanderLinkFlapUnderEveryStrategy(t *testing.T) {
	const spec = "seed=4 f=link-flap:other@t300"
	for _, strat := range strategy.Names() {
		sc, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		sc.Strategy = strat
		res := RunScenario(sc)
		if res.Failed() {
			t.Errorf("%s under %s: violations: %v", spec, strat, res.Violations)
		}
		if !res.AppDone && !res.JobLost {
			t.Errorf("%s under %s: neither finished nor lost", spec, strat)
		}
		if res.Faults != 1 {
			t.Errorf("%s under %s: %d faults fired, want 1", spec, strat, res.Faults)
		}
	}
}

// TestRecoveryGapRunsFinish pins two scenarios whose job neither completes
// nor is declared lost, so only pollBudget ends the controller's poll (the
// first is check.Generate(430), scenario 430 of `protocheck -n 500 -seed
// 1`). They must finish, and while the recovery gap stands, report it as a
// liveness violation with a flight dump rather than pass silently.
func TestRecoveryGapRunsFinish(t *testing.T) {
	for _, spec := range []string{
		"seed=430 r=4 ppn=1 sp=3 trig=21 f=hca-fail:tgt@t366 f=disk-fail:src@1",
		"seed=1442018065 r=16 ppn=4 sp=3 trig=38 strat=reactive-cr f=hca-fail:src@t236 f=hca-fail:tgt@1",
	} {
		sc, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan *Result, 1)
		go func() { done <- RunScenario(sc) }()
		var res *Result
		select {
		case res = <-done:
		case <-time.After(2 * time.Minute):
			t.Fatalf("%s: still running after 2 min", spec)
		}
		if res.AppDone || res.JobLost {
			continue // the recovery gap was closed
		}
		liveness := false
		for _, v := range res.Violations {
			liveness = liveness || v.Invariant == "liveness"
		}
		if !liveness {
			t.Fatalf("%s: neither finished nor lost, yet no liveness violation: %v", spec, res.Violations)
		}
		if len(res.Flight) == 0 {
			t.Fatalf("%s: liveness violation without a flight dump", spec)
		}
	}
}

func TestRegistryNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, inv := range Registry() {
		if inv.Name == "" || inv.Desc == "" {
			t.Fatalf("invariant %+v missing name or description", inv)
		}
		if seen[inv.Name] {
			t.Fatalf("duplicate invariant name %q", inv.Name)
		}
		seen[inv.Name] = true
	}
}

func TestPerturbationChangesScheduleNotOutcome(t *testing.T) {
	// Same scenario ± perturbation: event counts may differ (the schedule
	// moved) but both runs must hold every invariant and complete.
	base, err := Parse("seed=21")
	if err != nil {
		t.Fatal(err)
	}
	pert := base
	pert.Perturb = 777
	a, b := RunScenario(base), RunScenario(pert)
	if a.Failed() || b.Failed() {
		t.Fatalf("violations: base=%v perturbed=%v", a.Violations, b.Violations)
	}
	if a.Completed != 1 || b.Completed != 1 {
		t.Fatalf("completed: base=%d perturbed=%d, want 1/1", a.Completed, b.Completed)
	}
}

func TestGeneratorCoversOutcomeSpace(t *testing.T) {
	// Shape guard on the generator's distribution: across a seed window it
	// must produce faulted, perturbed, checkpointed and multi-fault
	// scenarios, and every fault kind.
	kinds := map[fault.Kind]int{}
	var faulted, perturbed, ckpted int
	for seed := int64(1); seed <= 300; seed++ {
		sc := Generate(seed)
		if len(sc.Faults) > 0 {
			faulted++
		}
		if sc.Perturb != 0 {
			perturbed++
		}
		if sc.Ckpt {
			ckpted++
		}
		for _, f := range sc.Faults {
			kinds[f.Kind]++
		}
	}
	if faulted < 100 || perturbed < 100 || ckpted < 60 {
		t.Fatalf("thin coverage: faulted=%d perturbed=%d ckpted=%d", faulted, perturbed, ckpted)
	}
	for _, k := range []fault.Kind{
		fault.NodeCrash, fault.HCAFail, fault.DiskFail,
		fault.FTBDrop, fault.FTBDelay, fault.RackFail, fault.LinkFlap,
	} {
		if kinds[k] == 0 {
			t.Errorf("generator never produced %v", k)
		}
	}
}

func TestRankChoicesMatchKernels(t *testing.T) {
	for _, k := range []npb.Kernel{npb.LU, npb.BT, npb.SP} {
		for _, r := range rankChoices(k) {
			sc := Default()
			sc.Kernel, sc.Ranks = k, r
			if r%sc.PPN != 0 {
				sc.PPN = 1
			}
			if err := sc.Valid(); err != nil {
				t.Errorf("kernel %s ranks %d: %v", k, r, err)
			}
		}
	}
}

// TestShrinkOrderCoversFieldTables checks each kind's shrink order against
// its field table: every key it names is a field other than the seed, and
// every field but the seed leads one simplification.
func TestShrinkOrderCoversFieldTables(t *testing.T) {
	t.Run("scenario", func(t *testing.T) { checkShrinkOrder(t, scenarioSpec) })
	t.Run("fleet", func(t *testing.T) { checkShrinkOrder(t, fleetSpec) })
	t.Run("partitioned", func(t *testing.T) { checkShrinkOrder(t, partSpec) })
}

func checkShrinkOrder[S interface{ Valid() error }](t *testing.T, c *codec[S]) {
	led := map[int]bool{}
	for _, g := range c.shrink {
		for _, i := range g {
			if c.fields[i].pinned {
				t.Errorf("shrink order names the seed or an unknown key")
			}
		}
		led[g[0]] = true
	}
	for i, f := range c.fields {
		if !f.pinned && !led[i] {
			t.Errorf("field %q never shrinks", f.key)
		}
	}
}
