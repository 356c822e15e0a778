package exp

import (
	"fmt"
	"testing"

	"ibmig/internal/core"
	"ibmig/internal/npb"
	"ibmig/internal/sim"
)

// sumsHash folds a result's per-rank verification sums into one value.
func sumsHash(res *npb.Result) uint64 {
	h := uint64(fnvOffset)
	for _, s := range res.RankSums {
		h = (h ^ s) * fnvPrime
	}
	return h
}

// runSumsJob runs a class S kernel to completion on the serial engine,
// migrating the middle node a third of the way in when migrate is set, and
// returns the application's result.
func runSumsJob(t *testing.T, k npb.Kernel, ranks, ppn int, migrate bool) *npb.Result {
	t.Helper()
	sc := Scale{Class: npb.ClassS, Ranks: ranks, PPN: ppn, Seed: 3}
	s := newSession(k, sc, ranks, ppn, 1, 0, core.Options{Hash: migrate})
	s.drive(func(p *sim.Proc) {
		if migrate {
			p.Sleep(s.triggerAt())
			s.fw.TriggerMigration(p, s.midNode()).Wait(p)
		}
		s.fw.W.WaitDone(p)
	})
	if migrate && len(s.fw.Reports) != 1 {
		t.Fatalf("%s: %d migration reports, want 1", k, len(s.fw.Reports))
	}
	for i, n := range s.res.IterDone {
		if n != s.w.Iterations {
			t.Fatalf("%s: rank %d finished %d/%d iterations", k, i, n, s.w.Iterations)
		}
	}
	return s.res
}

// TestVerificationSumsPinned pins the absolute per-rank verification sums,
// which the other tests only compare with each other: a serial LU run with
// a migration, the partitioned LU at parts=4 on one and two workers, and
// class S BT and SP runs. A change to how received payloads are folded must
// leave every constant here as it is; a deliberate change to the hash or to
// the kernels' communication re-pins them.
func TestVerificationSumsPinned(t *testing.T) {
	check := func(name string, res *npb.Result, want uint64) {
		t.Helper()
		if got := sumsHash(res); got != want {
			t.Errorf("%s: verification sums hash %#x, want %#x", name, got, want)
		}
	}
	check("LU.S.16 migrated", runSumsJob(t, npb.LU, 16, 2, true), 0x42d295ce2c209f90)
	for _, workers := range []int{1, 2} {
		out := RunPartitionedLU(partScale, 4, workers, partIters, false)
		check(fmt.Sprintf("partitioned LU parts=4 workers=%d", workers), out.Result, 0x232e71f6c0377e8b)
	}
	check("BT.S.9", runSumsJob(t, npb.BT, 9, 3, false), 0x87b596c9d436bf3d)
	check("SP.S.16", runSumsJob(t, npb.SP, 16, 2, false), 0xeb0a6f5bee2e4a86)
}
