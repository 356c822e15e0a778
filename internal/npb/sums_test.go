package npb

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// fold is the serial reference for a rank's verification sum: it mixes a
// received payload into the accumulator, sampling at most its first 4 KB.
// The pipeline (sums.go) must compute exactly these sums.
func fold(acc uint64, b payload.Buffer) uint64 {
	n := b.Size()
	if n > 4096 {
		n = 4096
	}
	return acc*1099511628211 ^ b.Slice(0, n).Checksum()
}

// pipeRanks is the world size of the generated pipeline programs.
const pipeRanks = 5

// pipeSizes are the payload sizes the programs draw: around a lane, around
// the sample bound, and past it.
var pipeSizes = [...]int64{0, 1, 7, 8, 4095, 4096, 4097, 64 << 10}

// runFoldPipeline interprets data as a program of received payloads,
// all-reduce results and mid-stream sum reads across pipeRanks interleaved
// ranks. Each runs through a sumPipe and through the serial fold; every
// sum read, and every rank's sum at the end, must agree, or it returns the
// first disagreement.
func runFoldPipeline(data []byte) error {
	i := 0
	next := func() int {
		if i >= len(data) {
			return 0
		}
		i++
		return int(data[i-1])
	}
	s := newSumPipe()
	s.open(pipeRanks)
	var ref [pipeRanks]uint64
	for i < len(data) {
		op, rank := next()%6, next()%pipeRanks
		size := pipeSizes[next()%len(pipeSizes)]
		seed := uint64(next())
		var b payload.Buffer
		switch op {
		case 0, 1: // inline run, lane-aligned or not
			off := int64(next()) * 8
			if op == 1 {
				off += int64(next()%7) + 1
			}
			b = payload.Synth(seed, off, size)
		case 2: // spilled: two runs
			b = payload.Synth(seed, 8, size)
			b.Append(payload.Part{Seed: seed + 1, Off: 3, N: int64(next()) + 1})
		case 3: // real bytes
			raw := make([]byte, size)
			rand.New(rand.NewSource(int64(seed))).Read(raw)
			b = payload.FromBytes(raw)
		case 4: // all-reduce result: checksummed on the engine's thread
			b = payload.Synth(seed, 0, 40)
			s.addSum(rank, sample(b))
			ref[rank] = fold(ref[rank], b)
			continue
		case 5: // a sum read mid-stream
			if got := s.sum(rank); got != ref[rank] {
				return fmt.Errorf("op byte %d: rank %d sum %#x mid-stream, serial fold %#x", i, rank, got, ref[rank])
			}
			continue
		}
		// Repeat the payload so short programs still fill whole batches.
		for n := next()%64 + 1; n > 0; n-- {
			s.add(rank, b)
			ref[rank] = fold(ref[rank], b)
		}
	}
	for r, want := range ref {
		if got := s.sum(r); got != want {
			return fmt.Errorf("rank %d sum %#x at the end, serial fold %#x", r, got, want)
		}
	}
	return nil
}

// TestFoldPipelineMatchesSerial runs generated programs through
// runFoldPipeline: moving the checksums to a helper goroutine and batching
// them must not change any rank's sum.
func TestFoldPipelineMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		data := make([]byte, 1+rng.Intn(2000))
		rng.Read(data)
		if err := runFoldPipeline(data); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSumPipesConcurrent runs pipelines on several goroutines at once, as
// the shards of a partitioned run do: they share only the batch free list.
func TestSumPipesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 5 && errs[g] == nil; i++ {
				data := make([]byte, 1+rng.Intn(2000))
				rng.Read(data)
				errs[g] = runFoldPipeline(data)
			}
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}

func FuzzFoldPipeline(f *testing.F) {
	f.Add([]byte{0, 1, 5, 9, 3, 7})
	f.Add([]byte{1, 2, 6, 4, 1, 3, 63, 5, 2, 0, 0, 0})
	f.Add(bytes.Repeat([]byte{0, 3, 2, 7, 5, 255}, 40))
	f.Add([]byte{2, 0, 7, 1, 9, 4, 3, 1, 4, 2, 8, 4, 4, 0, 0, 0, 5, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		// A program byte can stand for up to 64 payloads of up to 64 KB, so
		// longer programs only slow the fuzzer down.
		if len(data) > 1024 {
			return
		}
		if err := runFoldPipeline(data); err != nil {
			t.Fatal(err)
		}
	})
}

// TestSumsIndependentOfGOMAXPROCS runs an LU and an SP job with the helper
// confined to the engine's one thread and with it free to run beside it:
// where the checksums run must not change the sums.
func TestSumsIndependentOfGOMAXPROCS(t *testing.T) {
	for _, w := range []Workload{New(LU, ClassS, 16), New(SP, ClassS, 16)} {
		def, _ := runWorkload(t, w, 4, false)
		prev := runtime.GOMAXPROCS(1)
		one, _ := runWorkload(t, w, 4, false)
		runtime.GOMAXPROCS(prev)
		if !def.Equal(one) {
			t.Errorf("%s: sums at GOMAXPROCS=1 differ from GOMAXPROCS=%d", w.Name(), prev)
		}
	}
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to base.
func waitGoroutines(t *testing.T, what string, base int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines a second after the run, %d before it", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSumPipeLeavesNoGoroutine requires every checksum helper to be gone
// after a run: one that completes, and a 64-rank LU stopped a quarter of the
// way in with Stop then Shutdown, whose ranks never read their sums.
func TestSumPipeLeavesNoGoroutine(t *testing.T) {
	w := New(LU, ClassS, 64)
	base := runtime.NumGoroutine()
	runWorkload(t, w, 8, false)
	waitGoroutines(t, "completed run", base)

	e, _, world := startWorkload(w, 8, NewResult(w.Ranks), false)
	e.Spawn("ctl", func(p *sim.Proc) {
		world.WaitReady(p)
		p.Sleep(w.EstimatedRuntime() / 4)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if world.Done() {
		t.Fatal("the run finished before it was stopped")
	}
	e.Shutdown()
	waitGoroutines(t, "stopped run", base)
}

// TestStoppedRunReturnsBatches stops a 64-rank LU a quarter of the way in,
// before its ranks read their sums, twice. The first run returns every batch
// it took to the free list when Shutdown unwinds its ranks, so the second
// takes all of its batches from there and allocates none.
func TestStoppedRunReturnsBatches(t *testing.T) {
	w := New(LU, ClassS, 64)
	stopped := func() {
		e, _, world := startWorkload(w, 8, NewResult(w.Ranks), false)
		e.Spawn("ctl", func(p *sim.Proc) {
			world.WaitReady(p)
			p.Sleep(w.EstimatedRuntime() / 4)
			e.Stop()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if world.Done() {
			t.Fatal("the run finished before it was stopped")
		}
		e.Shutdown()
	}
	minted := func() int {
		freeBatches.Lock()
		defer freeBatches.Unlock()
		return freeBatches.minted
	}
	stopped()
	before := minted()
	stopped()
	if got := minted() - before; got != 0 {
		t.Fatalf("the second stopped run allocated %d batches, want 0", got)
	}
}

// TestSumPipeAllocs bounds what a pipeline allocates once the batch free
// list is warm: its channels, accumulators and helper starts, not its
// batches. The program is LU-shaped: 64 ranks, 2560-byte faces.
func TestSumPipeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ranks, faces, budget = 64, 100_000, 2 << 10
	run := func() {
		s := newSumPipe()
		s.open(ranks)
		for i := 0; i < faces; i++ {
			s.add(i%ranks, payload.Synth(uint64(i), 0, 2560))
			if i%5000 == 0 {
				s.addSum(i%ranks, sample(payload.Synth(uint64(i), 0, 40)))
			}
		}
		for r := 0; r < ranks; r++ {
			s.sum(r)
		}
	}
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("second run allocated %d bytes in %d objects", got, after.Mallocs-before.Mallocs)
	if got > budget {
		t.Fatalf("second run allocated %d bytes, budget %d", got, budget)
	}
}
