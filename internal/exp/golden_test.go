package exp

import (
	"sync"
	"testing"

	"ibmig/internal/core"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
)

// Golden-trace pinning for the simulator kernel.
//
// The constants below were recorded before the hot-path overhaul (ready-ring
// batched resume, event freelist, ring-buffer wait lists, pooled checksum
// scratch, checksum memoization) and must never drift: they prove that the
// optimizations are invisible to simulation results. If an intentional
// semantic change to the kernel or the migration pipeline moves these
// numbers, re-record them in the same commit and say why in the message.
const (
	goldenRecords = 23591
	goldenHash    = 0x4c76171ae7997127
	goldenTotalNS = 658276794 // migration cycle total, virtual ns
	goldenMoved   = 12635716  // bytes moved
)

// goldenScale is small enough to run in <200ms yet drives the full pipeline:
// LU class S, 16 ranks on 8 nodes + 1 spare, one mid-run migration.
var goldenScale = Scale{Class: npb.ClassS, Ranks: 16, PPN: 2, Seed: 7}

// goldenRun performs the pinned scenario and returns the trace fingerprint.
func goldenRun() (records int, hash uint64, totalNS int64, moved int64) {
	records, hash, totalNS, moved, _ = goldenRunWith(false)
	return
}

// goldenRunWith optionally attaches an observability collector to the engine
// (TestGoldenTraceObsEnabled uses it to prove the collector is passive).
func goldenRunWith(enableObs bool) (records int, hash uint64, totalNS int64, moved int64, col *obs.Collector) {
	sc := goldenScale
	s := newSession(npb.LU, sc, sc.Ranks, sc.PPN, 1, 0, core.Options{})
	rec := &sim.Recorder{}
	s.e.SetTracer(rec)
	if enableObs {
		col = obs.Enable(s.e)
	}
	s.drive(func(p *sim.Proc) {
		p.Sleep(s.triggerAt())
		s.fw.TriggerMigration(p, s.midNode()).Wait(p)
	})
	col.Finish(s.e.Now())
	rep := s.fw.Reports[len(s.fw.Reports)-1]
	return len(rec.Records), rec.Fingerprint(), int64(rep.Total()), rep.BytesMoved, col
}

// TestGoldenTraceUnchanged asserts that the full event trace of a migration
// run — every record's virtual timestamp, kind, actor and detail — matches
// the fingerprint recorded before the kernel hot-path overhaul.
func TestGoldenTraceUnchanged(t *testing.T) {
	records, hash, totalNS, moved := goldenRun()
	if records != goldenRecords {
		t.Errorf("trace records = %d, want %d", records, goldenRecords)
	}
	if hash != goldenHash {
		t.Errorf("trace hash = %#x, want %#x", hash, goldenHash)
	}
	if totalNS != goldenTotalNS {
		t.Errorf("migration total = %dns, want %dns", totalNS, goldenTotalNS)
	}
	if moved != goldenMoved {
		t.Errorf("bytes moved = %d, want %d", moved, goldenMoved)
	}
}

// TestGoldenTraceUnchangedUnderParallelism runs four copies of the golden
// scenario concurrently through RunParallel and requires each to reproduce
// the exact fingerprint. Concurrent engines share only the checksum cache;
// any cross-engine leakage would show up as a trace divergence here
// (especially under -race).
func TestGoldenTraceUnchangedUnderParallelism(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(4)

	const n = 4
	type fp struct {
		records        int
		hash           uint64
		totalNS, moved int64
	}
	got := make([]fp, n)
	tasks := make([]func(), n)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			r, h, tot, m := goldenRun()
			got[i] = fp{r, h, tot, m}
		}
	}
	RunParallel(tasks...)
	want := fp{goldenRecords, goldenHash, goldenTotalNS, goldenMoved}
	for i, g := range got {
		if g != want {
			t.Errorf("engine %d: fingerprint %+v, want %+v", i, g, want)
		}
	}
}

// TestDeterminismUnderParallelism regenerates Fig. 4 and the scale sweep at
// parallelism 1 and parallelism 8 and requires every simulated number to be
// identical. Host-side telemetry (wall clock) is zeroed before comparison —
// it is the only field allowed to differ.
func TestDeterminismUnderParallelism(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)

	sc := Scale{Class: npb.ClassS, Ranks: 16, PPN: 2, Seed: 3}
	ranks := []int{8, 16, 32}

	type snapshot struct {
		fig4  []PhaseRow
		sweep []SweepPoint
	}
	capture := func(par int) snapshot {
		SetParallelism(par)
		s := snapshot{fig4: Fig4(sc), sweep: ScaleSweep(sc, ranks)}
		for i := range s.sweep {
			s.sweep[i].WallMS = 0
		}
		return s
	}
	serial := capture(1)
	parallel := capture(8)

	if len(serial.fig4) != len(parallel.fig4) {
		t.Fatalf("fig4 row count: serial %d, parallel %d", len(serial.fig4), len(parallel.fig4))
	}
	for i := range serial.fig4 {
		if serial.fig4[i] != parallel.fig4[i] {
			t.Errorf("fig4 row %d: serial %+v != parallel %+v", i, serial.fig4[i], parallel.fig4[i])
		}
	}
	if len(serial.sweep) != len(parallel.sweep) {
		t.Fatalf("sweep point count: serial %d, parallel %d", len(serial.sweep), len(parallel.sweep))
	}
	for i := range serial.sweep {
		if serial.sweep[i] != parallel.sweep[i] {
			t.Errorf("sweep point %d: serial %+v != parallel %+v", i, serial.sweep[i], parallel.sweep[i])
		}
	}
}

// TestRunParallelSemantics pins the harness contract: order-stable slots,
// bounded concurrency, serial fallback, and first-panic propagation.
func TestRunParallelSemantics(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)

	t.Run("bounded concurrency", func(t *testing.T) {
		SetParallelism(3)
		var mu sync.Mutex
		running, peak := 0, 0
		released := false
		barrier := make(chan struct{})
		tasks := make([]func(), 9)
		for i := range tasks {
			tasks[i] = func() {
				mu.Lock()
				running++
				if running > peak {
					peak = running
				}
				release := running == 3 && !released
				if release {
					released = true
				}
				mu.Unlock()
				if release {
					close(barrier) // saturated once; let everyone proceed
				}
				<-barrier
				mu.Lock()
				running--
				mu.Unlock()
			}
		}
		RunParallel(tasks...)
		if peak > 3 {
			t.Errorf("peak concurrency %d exceeds limit 3", peak)
		}
		if peak < 2 {
			t.Errorf("peak concurrency %d; expected the pool to actually fan out", peak)
		}
	})

	t.Run("serial order", func(t *testing.T) {
		SetParallelism(1)
		var order []int
		RunParallel(
			func() { order = append(order, 0) },
			func() { order = append(order, 1) },
			func() { order = append(order, 2) },
		)
		for i, v := range order {
			if i != v {
				t.Fatalf("serial execution out of order: %v", order)
			}
		}
	})

	t.Run("panic propagation", func(t *testing.T) {
		SetParallelism(4)
		defer func() {
			if r := recover(); r == nil {
				t.Error("expected RunParallel to re-panic")
			}
		}()
		RunParallel(
			func() {},
			func() { panic("boom") },
			func() {},
		)
	})
}
