package exp

import (
	"testing"

	"ibmig/internal/npb"
)

// partScale is the pinned partitioned-LU scenario for determinism tests:
// class S at 32 ranks gives a 4x8 grid, so 4 partitions of 2 rows each with
// three cross-partition boundaries in play.
var partScale = Scale{Class: npb.ClassS, Ranks: 32, PPN: 1, Seed: 7}

const partIters = 10

// TestPartitionedLUDeterministic requires bit-identical per-partition traces
// — and identical results, window counts and cross-traffic — at every worker
// count. This is the tentpole's core guarantee: parallel execution is
// invisible to simulation output.
func TestPartitionedLUDeterministic(t *testing.T) {
	base := RunPartitionedLU(partScale, 4, 1, partIters, true)
	if got := len(base.PartitionHashes); got != 4 {
		t.Fatalf("partition hashes = %d, want 4", got)
	}
	if base.CrossMessages == 0 {
		t.Fatal("no cross-partition traffic; the boundary wiring is dead")
	}
	for _, workers := range []int{2, 8} {
		out := RunPartitionedLU(partScale, 4, workers, partIters, true)
		for i, h := range out.PartitionHashes {
			if h != base.PartitionHashes[i] {
				t.Errorf("workers=%d: partition %d trace hash %#x, want %#x", workers, i, h, base.PartitionHashes[i])
			}
		}
		if out.Fingerprint != base.Fingerprint {
			t.Errorf("workers=%d: fingerprint %#x, want %#x", workers, out.Fingerprint, base.Fingerprint)
		}
		if out.Events != base.Events || out.Windows != base.Windows || out.CrossMessages != base.CrossMessages {
			t.Errorf("workers=%d: events/windows/cross = %d/%d/%d, want %d/%d/%d", workers,
				out.Events, out.Windows, out.CrossMessages, base.Events, base.Windows, base.CrossMessages)
		}
		if !out.Result.Equal(base.Result) {
			t.Errorf("workers=%d: verification sums diverged", workers)
		}
		if out.VirtualTime != base.VirtualTime {
			t.Errorf("workers=%d: virtual time %v, want %v", workers, out.VirtualTime, base.VirtualTime)
		}
	}
	for g, done := range base.Result.IterDone {
		if done != partIters {
			t.Fatalf("rank %d finished %d/%d iterations", g, done, partIters)
		}
	}
	for g, sum := range base.Result.RankSums {
		if sum == 0 {
			t.Fatalf("rank %d verification sum is zero", g)
		}
	}
}

// TestPartitionedLUDegenerate pins the parts=1 path: a single partition runs
// the whole world on the serial dispatcher with no cross traffic and no
// window barriers beyond the trivial ones, at any worker count.
func TestPartitionedLUDegenerate(t *testing.T) {
	one := RunPartitionedLU(partScale, 1, 1, partIters, true)
	if one.CrossMessages != 0 {
		t.Fatalf("parts=1 produced %d cross messages", one.CrossMessages)
	}
	many := RunPartitionedLU(partScale, 1, 8, partIters, true)
	if one.Fingerprint != many.Fingerprint || !one.Result.Equal(many.Result) {
		t.Fatal("parts=1 diverged across worker counts")
	}
	for g, done := range one.Result.IterDone {
		if done != partIters {
			t.Fatalf("rank %d finished %d/%d iterations", g, done, partIters)
		}
	}
}

// TestPartitionedLUPinned pins the partitioned scenario's trace fingerprint
// at parts=1 and parts=4. TestPartitionedLUDeterministic only checks that
// worker counts agree with each other; these constants catch a change that
// moves every run the same way. Neither depends on the worker count.
func TestPartitionedLUPinned(t *testing.T) {
	for _, c := range []struct {
		parts int
		want  uint64
	}{
		{1, 0x51b567a86c807cfa},
		{4, 0x3a670d482342cd70},
	} {
		if got := RunPartitionedLU(partScale, c.parts, 2, partIters, true).Fingerprint; got != c.want {
			t.Errorf("parts=%d: fingerprint %#x, want %#x", c.parts, got, c.want)
		}
	}
}

// TestPartitionedLUWindows pins the exact window counts, which no
// fingerprint covers. Each cross link's one promise is its shard's launch
// cost (mpi.World.MeshCost); a launch bound that understates it splits the
// launch into latency-wide windows, which the launch-heavy case (32 ranks a
// shard, one iteration) shows most.
func TestPartitionedLUWindows(t *testing.T) {
	for _, c := range []struct {
		name         string
		sc           Scale
		parts, iters int
		want         uint64
	}{
		{"partScale", partScale, 4, partIters, 2586},
		{"launch-heavy", Scale{Class: npb.ClassS, Ranks: 64, PPN: 1, Seed: 7}, 2, 1, 231},
	} {
		if got := RunPartitionedLU(c.sc, c.parts, 2, c.iters, false).Windows; got != c.want {
			t.Errorf("%s: %d windows, want %d", c.name, got, c.want)
		}
	}
}

// TestCheckPartitions covers the shard-count check the commands run before
// RunPartitionedLU: the count must be positive and divide the grid rows.
func TestCheckPartitions(t *testing.T) {
	for _, c := range []struct {
		ranks, parts int
		ok           bool
	}{
		{32, 4, true},  // 4x8 grid, 2 rows per shard
		{32, 8, true},  // one row per shard
		{32, 3, false}, // 3 does not divide 8 rows
		{32, 0, false},
		{32, -2, false},
		{7, 7, true}, // prime: a 1x7 grid, one rank per shard
		{7, 2, false},
		{0, 1, false},
	} {
		err := CheckPartitions(c.ranks, c.parts)
		if (err == nil) != c.ok {
			t.Errorf("CheckPartitions(%d, %d) = %v, want ok=%v", c.ranks, c.parts, err, c.ok)
		}
	}
}
