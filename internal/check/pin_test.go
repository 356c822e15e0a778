package check

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"ibmig/internal/exp"
	"ibmig/internal/fault"
	"ibmig/internal/npb"
	"ibmig/internal/sim"
	"ibmig/internal/strategy"
)

// The spec strings and shrink results below are outputs other code keeps:
// bench's dst_sweep fingerprint hashes Result.Spec, and protocheck prints
// shrunk specs as repro lines. These fingerprints pin both, so a change to
// how specs are rendered, parsed, counted or simplified shows up here.

const (
	pinnedScenarioSpecs   = 0x56bc97188013b992
	pinnedFleetSpecs      = 0x30d3af5677c13c13
	pinnedScenarioShrinks = 0x933868caac714fe6
	pinnedFleetShrinks    = 0xd231d0f93fb2a979
	pinnedPartSpecs       = 0xff6c9f0c79287163
	pinnedPartShrinks     = 0xe908b8436714506d

	// pinnedDSTOutcomes pins what the Job Manager does with each class S
	// scenario of Generate(1..dstOutcomeSeeds) under every strategy.
	pinnedDSTOutcomes = 0x3d2062abbbbbf1d3
	dstOutcomeSeeds   = 56

	// pinnedPartOutcomes pins what the partitioned engine does with each
	// scenario of CI's sweep (seeds 1..200, 4 partitions, 4 workers) and of
	// a sweep that draws the ring size from the seed (seeds 1..25, 2
	// workers).
	pinnedPartOutcomes = 0xc857ddd14dc325b0
)

func fingerprint(write func(w io.Writer)) uint64 {
	h := fnv.New64a()
	write(h)
	return h.Sum64()
}

func hasFault(k fault.Kind) func(Scenario) bool {
	return func(s Scenario) bool {
		for _, f := range s.Faults {
			if f.Kind == k {
				return true
			}
		}
		return false
	}
}

func TestSpecStringsPinned(t *testing.T) {
	if got := fingerprint(func(w io.Writer) {
		for seed := int64(1); seed <= 2000; seed++ {
			fmt.Fprintln(w, Generate(seed))
		}
	}); got != pinnedScenarioSpecs {
		t.Errorf("Generate(1..2000) spec fingerprint %#x, want %#x", got, uint64(pinnedScenarioSpecs))
	}
	if got := fingerprint(func(w io.Writer) {
		for seed := int64(1); seed <= 500; seed++ {
			fmt.Fprintln(w, GenerateFleet(seed))
		}
	}); got != pinnedFleetSpecs {
		t.Errorf("GenerateFleet(1..500) spec fingerprint %#x, want %#x", got, uint64(pinnedFleetSpecs))
	}
	if got := fingerprint(func(w io.Writer) {
		for _, c := range []struct{ parts, workers int }{{0, 1}, {0, 4}, {4, 4}, {7, 2}} {
			k, _ := Partitioned(c.parts, c.workers)
			for seed := int64(1); seed <= 500; seed++ {
				fmt.Fprintln(w, k.generate(seed))
			}
		}
	}); got != pinnedPartSpecs {
		t.Errorf("Partitioned generator (1..500) spec fingerprint %#x, want %#x", got, uint64(pinnedPartSpecs))
	}
}

// TestShrinkResultsPinned shrinks generated specs under synthetic
// predicates. Some depend on one feature (a fault kind, a flag); others
// depend on the shape or on how many fields differ from the default, so the
// result also pins the order in which the shrinker tries its candidates and
// which fields it resets together.
func TestShrinkResultsPinned(t *testing.T) {
	scenarioPreds := []func(Scenario) bool{
		hasFault(fault.NodeCrash), hasFault(fault.HCAFail), hasFault(fault.DiskFail),
		hasFault(fault.FTBDrop), hasFault(fault.FTBDelay), hasFault(fault.RackFail),
		hasFault(fault.LinkFlap),
		func(s Scenario) bool { return s.Ckpt },
		func(s Scenario) bool { return s.Perturb != 0 },
		func(s Scenario) bool { return s.Kernel != npb.LU },
		func(s Scenario) bool { return s.Ranks != 8 },
		func(s Scenario) bool { return s.PPN == 1 || s.Spares == 3 },
		func(s Scenario) bool { return s.Fields() >= 2 },
		func(s Scenario) bool { return s.Fields() >= 3 && len(s.Faults) > 0 },
	}
	if got := fingerprint(func(w io.Writer) {
		for seed := int64(1); seed <= 200; seed++ {
			sc := Generate(seed)
			for i, fails := range scenarioPreds {
				fmt.Fprintf(w, "%d %d %s\n", seed, i, Shrink(sc, fails))
			}
		}
	}); got != pinnedScenarioShrinks {
		t.Errorf("scenario shrink fingerprint %#x, want %#x", got, uint64(pinnedScenarioShrinks))
	}

	fleetPreds := []func(FleetScenario) bool{
		func(s FleetScenario) bool { return s.Auto },
		func(s FleetScenario) bool { return s.FIFO },
		func(s FleetScenario) bool { return s.Nodes > 64 },
		func(s FleetScenario) bool { return s.MTBFH < 48 || s.RepairH > 8 },
		func(s FleetScenario) bool { return s.MaxWidth < s.Rack },
		func(s FleetScenario) bool { return s.Fields() >= 3 },
	}
	if got := fingerprint(func(w io.Writer) {
		for seed := int64(1); seed <= 100; seed++ {
			fs := GenerateFleet(seed)
			for i, fails := range fleetPreds {
				fmt.Fprintf(w, "%d %d %s\n", seed, i, Shrink(fs, fails))
			}
		}
	}); got != pinnedFleetShrinks {
		t.Errorf("fleet shrink fingerprint %#x, want %#x", got, uint64(pinnedFleetShrinks))
	}

	partPreds := []func(PartScenario) bool{
		func(s PartScenario) bool { return s.Parts >= 3 },
		func(s PartScenario) bool { return s.Workers != 1 },
		func(s PartScenario) bool { return s.Parts%2 == 1 || s.Workers > 2 },
		func(s PartScenario) bool { return s.Fields() >= 2 },
	}
	k, _ := Partitioned(0, 4)
	if got := fingerprint(func(w io.Writer) {
		for seed := int64(1); seed <= 100; seed++ {
			ps := k.generate(seed)
			for i, fails := range partPreds {
				fmt.Fprintf(w, "%d %d %s\n", seed, i, Shrink(ps, fails))
			}
		}
	}); got != pinnedPartShrinks {
		t.Errorf("partitioned shrink fingerprint %#x, want %#x", got, uint64(pinnedPartShrinks))
	}
}

// dstOutcomes fingerprints the outcome of every class S scenario of
// Generate(1..seeds) under every strategy: the spec, the recovery counters,
// how the job ended, its sim time and event count, and how many invariants
// it broke. Any change to the order or timing of the framework's decisions
// moves it.
func dstOutcomes(seeds int64) uint64 {
	var scs []Scenario
	for seed := int64(1); seed <= seeds; seed++ {
		sc := Generate(seed)
		if sc.Class != npb.ClassS {
			continue
		}
		for _, name := range strategy.Names() {
			sc.Strategy = name
			scs = append(scs, sc)
		}
	}
	rs := exp.Map(len(scs), func(i int) *Result { return RunScenario(scs[i]) })
	return fingerprint(func(w io.Writer) {
		for _, r := range rs {
			fmt.Fprintf(w, "%s|%d %d %d %d %d %d %d %d %d %v %v %d %d %d\n", r.Spec,
				r.Attempts, r.Completed, r.Aborted, r.Retries, r.Fallbacks, r.ReactiveRestarts,
				r.ReplicaRestores, r.SpareExhaustions, r.PolicyCkpts, r.JobLost, r.AppDone,
				r.SimNS, r.Events, len(r.Violations))
		}
	})
}

func TestDSTOutcomesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the DST corpus")
	}
	defer exp.SetParallelism(exp.Parallelism())
	exp.SetParallelism(0)
	if got := dstOutcomes(dstOutcomeSeeds); got != pinnedDSTOutcomes {
		t.Errorf("DST outcome fingerprint (seeds 1..%d, every strategy) %#x, want %#x",
			dstOutcomeSeeds, got, uint64(pinnedDSTOutcomes))
	}
}

// partOutcome is what one partitioned scenario did: its traffic, its
// ensemble's totals and final time, each partition's trace fingerprint, and
// the invariants it broke.
type partOutcome struct {
	seed                         int64
	parts                        int
	sent, windows, events, cross uint64
	now                          sim.Time
	traces                       []uint64
	errs                         []string
}

// partOutcomes runs the partitioned scenarios seeded seed..seed+n-1 on
// workers goroutines each, with parts partitions (0: drawn from the seed).
func partOutcomes(n int, seed int64, parts, workers int) []partOutcome {
	k, err := Partitioned(parts, workers)
	if err != nil {
		panic(err)
	}
	var out []partOutcome
	for _, r := range exp.Map(n, func(i int) *PartResult { return k.run(k.generate(seed + int64(i))) }) {
		var errs []string
		for _, v := range r.Violations {
			errs = append(errs, v.String())
		}
		out = append(out, partOutcome{r.Scenario.Seed, r.Scenario.Parts, r.Sent, r.Windows, r.Events, r.Cross, r.Now, r.Traces, errs})
	}
	return out
}

func TestPartOutcomesPinned(t *testing.T) {
	got := fingerprint(func(w io.Writer) {
		for _, sw := range []struct{ n, parts, workers int }{{200, 4, 4}, {25, 0, 2}} {
			for _, o := range partOutcomes(sw.n, 1, sw.parts, sw.workers) {
				fmt.Fprintf(w, "%d %d %d %d %d %d %d %x %q\n",
					o.seed, o.parts, o.sent, o.windows, o.events, o.cross, o.now, o.traces, o.errs)
			}
		}
	})
	if got != pinnedPartOutcomes {
		t.Errorf("partitioned outcome fingerprint %#x, want %#x", got, uint64(pinnedPartOutcomes))
	}
}
