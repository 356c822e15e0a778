package check

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"

	"ibmig/internal/fault"
	"ibmig/internal/npb"
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
}
