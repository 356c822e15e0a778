package check

import (
	"strings"
	"testing"
)

func TestFleetSpecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		fs := GenerateFleet(seed)
		spec := fs.String()
		back, err := ParseFleet(spec)
		if err != nil {
			t.Fatalf("seed %d: parse %q: %v", seed, spec, err)
		}
		if back != fs {
			t.Errorf("seed %d: round trip %q: %+v != %+v", seed, spec, back, fs)
		}
	}
}

func TestFleetSpecErrors(t *testing.T) {
	for _, spec := range []string{
		"seed=1",          // missing flt discriminator
		"flt bogus=1",     // unknown token
		"flt n=4",         // below envelope
		"flt seed=x",      // bad integer
		"flt n=64 rk=100", // rack larger than fleet
		"flt w=70 n=64",   // width above fleet
		"flt sp=90",       // spare fraction out of range
		"flt d=400",       // horizon out of range
		"flt auto=0",      // a flag takes no value
	} {
		if _, err := ParseFleet(spec); err == nil {
			t.Errorf("spec %q: want error", spec)
		}
	}
}

// TestFleetInvariantsHold runs a handful of generated fleet scenarios and
// requires a clean bill; CI sweeps hundreds via protocheck -fleet.
func TestFleetInvariantsHold(t *testing.T) {
	n := int64(12)
	if testing.Short() {
		n = 4
	}
	for seed := int64(1); seed <= n; seed++ {
		res := RunFleetScenario(GenerateFleet(seed))
		for _, v := range res.Violations {
			t.Errorf("seed %d (%s): %s", seed, res.Spec, v)
		}
		if res.R == nil || res.R.JobsTotal == 0 {
			t.Errorf("seed %d: degenerate run", seed)
		}
	}
}

// TestShrinkFleet drives the reducer with a synthetic predicate: a "failure"
// that only needs the hot MTBF must shrink to exactly that field.
func TestShrinkFleet(t *testing.T) {
	fs := GenerateFleet(99)
	fs.MTBFH = 12
	min := Shrink(fs, func(c FleetScenario) bool { return c.MTBFH == 12 })
	if min.Fields() != 1 || min.MTBFH != 12 {
		t.Errorf("shrink kept %d fields (%s), want just mtbf", min.Fields(), min)
	}
	// A passing scenario is returned untouched.
	if got := Shrink(fs, func(FleetScenario) bool { return false }); got != fs {
		t.Errorf("shrink of passing scenario changed it: %+v", got)
	}
}

func TestFleetSweepSummary(t *testing.T) {
	sum := Fleet.sweep(6, 1, nil)
	if sum.Checked != 6 || len(sum.Failures) != 0 {
		t.Fatalf("sweep: checked %d, %d failures", sum.Checked, len(sum.Failures))
	}
	if sum.JobsCompleted == 0 || sum.Interrupts == 0 {
		t.Errorf("sweep coverage degenerate: %+v", sum)
	}
	var b strings.Builder
	Fleet.write(&b, sum)
	if !strings.Contains(b.String(), "6 checked, 0 failed") {
		t.Errorf("summary rendering: %q", b.String())
	}
}

// TestAbsoluteAnchorSpecs covers the @tMS fault anchor: parse/render round
// trip, envelope validation, and generator emission.
func TestAbsoluteAnchorSpecs(t *testing.T) {
	sc, err := Parse("seed=5 f=node-crash:src@t15")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 1 || sc.Faults[0].AtMS != 15 || sc.Faults[0].Phase != 0 {
		t.Fatalf("parsed fault %+v, want absolute anchor at 15 ms", sc.Faults)
	}
	if got := sc.String(); got != "seed=5 f=node-crash:src@t15" {
		t.Errorf("render %q", got)
	}
	if _, err := Parse("seed=5 f=node-crash:src@t9999"); err == nil {
		t.Error("anchor beyond the envelope accepted")
	}
	if _, err := Parse("seed=5 f=node-crash:src@tx"); err == nil {
		t.Error("malformed absolute anchor accepted")
	}
	// The generator emits absolute anchors at a meaningful rate.
	abs := 0
	for seed := int64(1); seed <= 400; seed++ {
		for _, f := range Generate(seed).Faults {
			if f.AtMS > 0 {
				abs++
			}
		}
	}
	if abs < 20 {
		t.Errorf("only %d absolute-anchored faults in 400 scenarios", abs)
	}
}
