package exp

import (
	"runtime"
	"sync"
)

// Parallel experiment execution.
//
// Every experiment in this package drives its own sim.Engine, and an engine
// is strictly single-threaded: all simulated concurrency is virtual, and a
// run's event trace and timings are a pure function of its configuration and
// seed. That makes independent experiment runs embarrassingly parallel — the
// one-engine-per-goroutine rule. Map fans runs across real CPUs and is
// guaranteed, by construction, to produce bit-identical results to running
// the same runs serially: runs share no mutable state except the payload
// checksum cache, which memoizes pure functions and so affects wall time
// only. TestDeterminismUnderParallelism and TestGoldenTraceUnchanged enforce
// this.

// parallelism is the maximum number of concurrently running engines. It is
// set once at startup (cmd/paperbench -parallel) before experiments run;
// it is not synchronized for mid-run mutation.
var parallelism = 1

// SetParallelism sets how many experiment engines may run concurrently.
// n <= 0 selects GOMAXPROCS. Call before starting experiments.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	parallelism = n
}

// Parallelism returns the current engine-concurrency limit.
func Parallelism() int { return parallelism }

// Map runs run(0)..run(n-1), at most Parallelism() at a time, and returns
// their results with run(i)'s in slot i, so the result is the same whatever
// order the runs finish in. With parallelism 1 the runs happen serially in
// order on the calling goroutine. Each run typically builds, drives and tears
// down one engine.
//
// If a run panics (experiments panic on simulation failure), Map waits for
// the remaining runs and re-panics with the first panic value.
func Map[T any](n int, run func(i int) T) []T {
	out := make([]T, n)
	workers := min(parallelism, n)
	if workers <= 1 {
		for i := range out {
			out[i] = run(i)
		}
		return out
	}
	var (
		wg         sync.WaitGroup
		mu         sync.Mutex
		firstPanic any
		panicked   bool
	)
	sem := make(chan struct{}, workers)
	for i := range out {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if !panicked {
						panicked, firstPanic = true, r
					}
					mu.Unlock()
				}
				<-sem
				wg.Done()
			}()
			out[i] = run(i)
		}()
	}
	wg.Wait()
	if panicked {
		panic(firstPanic)
	}
	return out
}
