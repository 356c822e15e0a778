package check

import (
	"bytes"
	"strings"
	"testing"
)

// TestPartitionedSweepClean sweeps the partitioned kind at several worker
// counts, with each ring size drawn from its seed, and requires every
// scenario to pass: latency exactness, per-link FIFO, message conservation,
// and worker-count determinism.
func TestPartitionedSweepClean(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		k, err := Partitioned(0, workers)
		if err != nil {
			t.Fatal(err)
		}
		s := k.sweep(25, 1, nil)
		if s.Checked != 25 {
			t.Fatalf("workers=%d: checked %d/25", workers, s.Checked)
		}
		if len(s.Failures) != 0 {
			for _, f := range s.Failures {
				t.Errorf("%s: %v", f.Spec, f.Violations)
			}
			t.Fatalf("workers=%d: %d scenarios violated invariants", workers, len(s.Failures))
		}
		if s.Sent == 0 || s.Windows == 0 {
			t.Fatalf("workers=%d: sweep moved no traffic (sent=%d windows=%d)", workers, s.Sent, s.Windows)
		}
	}
}

// TestPartitionedSweepFixedParts sweeps the fixed ring of the CI smoke job
// (protocheck -partitions 4 -workers 4).
func TestPartitionedSweepFixedParts(t *testing.T) {
	k, err := Partitioned(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := k.sweep(10, 7, nil)
	if len(s.Failures) != 0 {
		t.Fatalf("failures: %+v", s.Failures)
	}
	if s.Sent == 0 || s.Windows == 0 {
		t.Fatalf("sweep moved no traffic (sent=%d windows=%d)", s.Sent, s.Windows)
	}
}

// TestPartitionedGenerator checks the kind's generator: the ring size drawn
// from the seed is 2 + seed mod 4, and every seed, negative ones too, gives
// a valid spec.
func TestPartitionedGenerator(t *testing.T) {
	k, err := Partitioned(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(-20); seed <= 20; seed++ {
		s := k.generate(seed)
		if err := s.Valid(); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		if want := 2 + int(((seed%4)+4)%4); s.Parts != want || s.Workers != 3 {
			t.Errorf("seed %d: %s, want p=%d w=3", seed, s, want)
		}
	}
}

// TestPartitionedRejectsBadSettings pins the envelope the kind and its
// specs share: a ring of at least 2 partitions, at least one worker, and
// neither above partMax.
func TestPartitionedRejectsBadSettings(t *testing.T) {
	for _, c := range []struct{ parts, workers int }{{1, 2}, {0, 0}, {0, -1}, {partMax + 1, 1}, {2, partMax + 1}} {
		if _, err := Partitioned(c.parts, c.workers); err == nil {
			t.Errorf("Partitioned(%d, %d) accepted", c.parts, c.workers)
		}
	}
	for _, c := range []struct{ parts, workers int }{{0, 1}, {2, 1}, {partMax, partMax}} {
		if _, err := Partitioned(c.parts, c.workers); err != nil {
			t.Errorf("Partitioned(%d, %d): %v", c.parts, c.workers, err)
		}
	}
	for _, spec := range []string{
		"seed=1",          // missing part discriminator
		"part bogus=1",    // unknown token
		"part p=1",        // no cross links
		"part w=0",        // no worker
		"part p=65",       // ring above the envelope
		"part w=65",       // workers above the envelope
		"part seed=x",     // bad integer
		"flt seed=1 n=64", // another kind
	} {
		if _, err := partSpec.parse(spec); err == nil {
			t.Errorf("parse(%q) accepted", spec)
		}
	}
}

// TestReplayPicksKindByPrefix replays one spec of each kind and checks
// that the leading token picked the runner.
func TestReplayPicksKindByPrefix(t *testing.T) {
	for _, c := range []struct{ spec, head string }{
		{"seed=42 f=node-crash:tgt@2", "scenario: seed=42 f=node-crash:tgt@2\n"},
		{"flt seed=7 n=96 auto", "fleet scenario: flt seed=7 n=96 auto\n"},
		{"part seed=7 p=4 w=4", "partitioned scenario: part seed=7 p=4 w=4\n"},
	} {
		var out bytes.Buffer
		if _, failed, err := Replay(&out, c.spec, false); err != nil || failed {
			t.Errorf("%q: failed=%v err=%v\n%s", c.spec, failed, err, &out)
		}
		if !strings.HasPrefix(out.String(), c.head) {
			t.Errorf("%q: report opens %q, want %q", c.spec, out.String(), c.head)
		}
	}
	if _, _, err := Replay(&bytes.Buffer{}, "part p=1", false); err == nil {
		t.Error(`Replay("part p=1") accepted a 1-partition ring`)
	}
}

// TestPartitionedReplayShrinks fails every multi-worker run with a synthetic
// violation and checks that a replay reports the shrunk spec: the smallest
// ring that still runs more than one worker.
func TestPartitionedReplayShrinks(t *testing.T) {
	k, _ := Partitioned(0, 1)
	k.run = func(s PartScenario) *PartResult {
		r := runPart(s)
		if s.Workers != 1 {
			r.Violations = append(r.Violations, Violation{Invariant: "synthetic", Detail: "workers > 1"})
		}
		return r
	}
	var out bytes.Buffer
	_, failed, err := k.replay(&out, "part seed=7 p=5 w=3", true)
	if err != nil || !failed {
		t.Fatalf("failed=%v err=%v", failed, err)
	}
	if want := `repro: protocheck -spec "part seed=7 w=3"`; !strings.Contains(out.String(), want) {
		t.Errorf("report lacks %s:\n%s", want, &out)
	}
}
