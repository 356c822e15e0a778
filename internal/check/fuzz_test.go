package check

import (
	"reflect"
	"testing"
)

// A shrunk repro is only replayable if the spec formats round-trip: a spec
// that parses and is valid must re-parse, from its canonical String, to an
// equal scenario, and that String must be a fixed point.

func FuzzScenarioRoundTrip(f *testing.F) {
	for _, spec := range []string{
		"seed=2",
		"seed=3 f=node-crash:tgt@2",
		"seed=5 ckpt f=node-crash:src@2",
		"seed=7 sp=3 ckpt f=rack-fail:src@2",
		"seed=4 f=link-flap:src@2",
		"seed=6 ckpt f=link-flap:tgt@1",
		"seed=8 f=node-crash:spare2@2",
		"seed=11 perturb=42 ckpt f=node-crash:tgt@2 f=ftb-delay:FTB_RESTART:50@3",
		"seed=5 f=node-crash:src@t15",
		"seed=430 r=4 ppn=1 sp=3 trig=21 f=hca-fail:tgt@t366 f=disk-fail:src@1",
		"seed=430 r=4 ppn=1 f=hca-fail:tgt@t366",
		"seed=1442018065 r=16 ppn=4 sp=3 trig=38 strat=reactive-cr f=hca-fail:src@t236 f=hca-fail:tgt@1",
		"k=BT r=8",
		"sp=1 f=disk-fail:spare2@2",
		"f=ftb-drop:MIGRATE_REQUEST@1",
		"strat=bogus",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := Parse(spec)
		if err != nil {
			return
		}
		canon := sc.String()
		back, err := Parse(canon)
		if err != nil {
			t.Fatalf("Parse(%q) ok, but its String %q does not parse: %v", spec, canon, err)
		}
		if !reflect.DeepEqual(back, sc) {
			t.Fatalf("round trip of %q via %q: %+v != %+v", spec, canon, back, sc)
		}
		if again := back.String(); again != canon {
			t.Fatalf("String not stable for %q: %q then %q", spec, canon, again)
		}
	})
}

func FuzzFleetSpecRoundTrip(f *testing.F) {
	for _, spec := range []string{
		"flt seed=1",
		"flt seed=3 n=64 rk=8 mtbf=24 rep=6 sp=8 auto fifo d=5 j=40 w=12 work=12",
		"flt n=64 rk=100",
		"flt w=70 n=64",
		"flt sp=90",
		"flt d=400",
		"seed=1",
	} {
		f.Add(spec)
	}
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(GenerateFleet(seed).String())
	}
	f.Fuzz(func(t *testing.T, spec string) {
		fs, err := ParseFleet(spec)
		if err != nil {
			return
		}
		canon := fs.String()
		back, err := ParseFleet(canon)
		if err != nil {
			t.Fatalf("ParseFleet(%q) ok, but its String %q does not parse: %v", spec, canon, err)
		}
		if back != fs {
			t.Fatalf("round trip of %q via %q: %+v != %+v", spec, canon, back, fs)
		}
		if again := back.String(); again != canon {
			t.Fatalf("String not stable for %q: %q then %q", spec, canon, again)
		}
	})
}

func FuzzPartitionedSpecRoundTrip(f *testing.F) {
	for _, spec := range []string{
		"part seed=1",
		"part seed=7 p=4 w=4",
		"part seed=-3 p=64 w=64",
		"part p=1",
		"part w=0",
		"part p=65",
		"part p=4 p=3",
		"part w",
		"flt seed=1",
		"seed=1",
	} {
		f.Add(spec)
	}
	k, _ := Partitioned(0, 4)
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(k.generate(seed).String())
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := partSpec.parse(spec)
		if err != nil {
			return
		}
		canon := s.String()
		back, err := partSpec.parse(canon)
		if err != nil {
			t.Fatalf("parse(%q) ok, but its String %q does not parse: %v", spec, canon, err)
		}
		if back != s {
			t.Fatalf("round trip of %q via %q: %+v != %+v", spec, canon, back, s)
		}
		if again := back.String(); again != canon {
			t.Fatalf("String not stable for %q: %q then %q", spec, canon, again)
		}
	})
}

// FuzzFaultSpecRoundTrip fuzzes the fault anchor format (`kind:where@N` or
// `kind:where@tMS`) on its own: a fault that parses must re-parse, from its
// String, to an equal FaultSpec, and that String must be a fixed point. The
// seeds include the shrunk repros protocheck has reported.
func FuzzFaultSpecRoundTrip(f *testing.F) {
	for _, s := range []string{
		"hca-fail:tgt@t366",
		"disk-fail:src@1",
		"hca-fail:src@t236",
		"hca-fail:tgt@1",
		"node-crash:src@t15",
		"rack-fail:src@2",
		"link-flap:tgt@1",
		"ftb-drop:FTB_MIGRATE@2",
		"ftb-delay:FTB_RESTART:50@3",
		"ftb-delay:FTB_RESTART:50@t40",
		"node-crash:src@t0",
		"node-crash:src@t-5",
		"node-crash:src@t",
		"node-crash:src@",
		"node-crash:src",
		"node-crash@2",
		"@t1",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		fs, err := parseFault(s)
		if err != nil {
			return
		}
		canon := fs.String()
		back, err := parseFault(canon)
		if err != nil {
			t.Fatalf("parseFault(%q) ok, but its String %q does not parse: %v", s, canon, err)
		}
		if back != fs {
			t.Fatalf("round trip of %q via %q: %+v != %+v", s, canon, back, fs)
		}
		if again := back.String(); again != canon {
			t.Fatalf("String not stable for %q: %q then %q", s, canon, again)
		}
	})
}

// TestParseFaultRejectsBadAnchors pins the anchors parseFault refuses: an
// absolute anchor must be a positive number of milliseconds (`@t0` would
// otherwise read back as phase 0), and a phase anchor must be a number.
func TestParseFaultRejectsBadAnchors(t *testing.T) {
	for _, s := range []string{
		"node-crash:src",
		"node-crash:src@",
		"node-crash:src@t",
		"node-crash:src@t0",
		"node-crash:src@t-5",
		"node-crash:src@tx",
		"node-crash:src@x",
		"node-crash:src@1x",
		"node-crash:src@t1@2",
		"ftb-delay:FTB_RESTART:50@t-1",
	} {
		if fs, err := parseFault(s); err == nil {
			t.Errorf("parseFault(%q) = %+v, want an error", s, fs)
		}
	}
}
