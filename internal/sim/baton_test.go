package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// within runs fn on a fresh goroutine and fails the test if it has not
// returned after d. The tests below take a process's wake channel away
// (nil: any send or receive on it blocks forever) to prove a path never
// touches it; within turns such a block into a failure instead of a hang.
func within(t *testing.T, d time.Duration, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("still blocked after %v", d)
	}
}

// TestBatonSelfResumeNoSwitch pins the self-resume fast path: a process
// whose own wakeup is the next event gets it straight back from the
// dispatcher it runs in park, without a channel operation (its wake channel
// is nil throughout) and without an allocation.
func TestBatonSelfResumeNoSwitch(t *testing.T) {
	e := NewEngine(1)
	var allocs float64
	e.Spawn("ticker", func(p *Proc) {
		wake := p.wake
		p.wake = nil
		allocs = testing.AllocsPerRun(1000, func() { p.Sleep(time.Microsecond) })
		p.wake = wake
	})
	within(t, 10*time.Second, func() {
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	e.Shutdown()
	if allocs != 0 {
		t.Fatalf("self-resuming Sleep allocates %.1f/op, want 0", allocs)
	}
	if e.Now() != Time(1001*time.Microsecond) {
		t.Fatalf("now = %v, want 1.001ms", e.Now())
	}
}

// TestBatonRecycledGoroutineRunsOwnNextLife: a pooled goroutine dispatching
// between lives that reaches the start event of its own recycled Proc runs
// the new life itself, with no send to its own wake channel.
func TestBatonRecycledGoroutineRunsOwnNextLife(t *testing.T) {
	e := NewEngine(1)
	var first, second *Proc
	var wake chan int
	e.Spawn("first", func(p *Proc) {
		first = p
		p.Sleep(time.Microsecond)
		// End the life without a wake channel; the next life restores it.
		wake, p.wake = p.wake, nil
	})
	e.After(2*time.Microsecond, func() {
		second = e.Spawn("second", func(p *Proc) {
			p.wake = wake
			p.Sleep(time.Microsecond)
		})
	})
	within(t, 10*time.Second, func() {
		if err := e.Run(); err != nil {
			t.Error(err)
		}
	})
	e.Shutdown()
	if second != first {
		t.Fatal("second process did not reuse the first one's pooled Proc")
	}
	if e.Now() != Time(3*time.Microsecond) {
		t.Fatalf("now = %v, want 3us", e.Now())
	}
}

// TestBatonCallbackPanicSurfacesFromRun: an engine callback that panics while
// a process goroutine holds the baton — parked in Sleep, or idle in the pool
// between lives — panics out of Run on the caller's goroutine with the same
// value, rather than being reported as a process failure.
func TestBatonCallbackPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	cases := []struct {
		name  string
		build func(e *Engine)
	}{
		// The ticker's own wakeups are the only events before the callback,
		// so it holds the baton when the callback fires.
		{"parked-process", func(e *Engine) {
			e.Spawn("ticker", func(p *Proc) {
				for {
					p.Sleep(time.Microsecond)
				}
			})
		}},
		// The short process ends at 1us; its pooled goroutine dispatches on.
		{"between-lives", func(e *Engine) {
			e.Spawn("short", func(p *Proc) { p.Sleep(time.Microsecond) })
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine(1)
			c.build(e)
			want := &boom{7}
			e.After(5500*time.Nanosecond, func() { panic(want) })
			got := func() (r any) {
				defer func() { r = recover() }()
				err := e.Run()
				t.Errorf("Run returned %v instead of panicking", err)
				return nil
			}()
			if got != any(want) {
				t.Fatalf("Run panicked with %v, want %v", got, want)
			}
			if e.Now() != Time(5500) {
				t.Fatalf("now = %v, want 5.5us", e.Now())
			}
			e.Shutdown()
			waitGoroutines(t, base)
		})
	}
}

// TestBatonProcessPanicIsRunError: a process panic is still converted into
// Run's error, even when the panicking process got the baton from another
// process rather than from the Run caller.
func TestBatonProcessPanicIsRunError(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("ticker", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	})
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(3500 * time.Nanosecond)
		panic("kaboom")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `process "boom" panicked: kaboom`) {
		t.Fatalf("Run error = %v, want the boom process's panic", err)
	}
	if e.Now() != Time(3500) {
		t.Fatalf("run went on to %v after the panic at 3.5us", e.Now())
	}
	e.Shutdown()
}

// buildBatonMix populates e with processes, a contended resource, a callback
// and a late spawn, so its trace depends on every dispatch decision.
func buildBatonMix(e *Engine) {
	buildPingScenario(e, 40)
	r := NewResource(e, "dev", 1)
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("holder%d", i), func(p *Proc) {
			for k := 0; k < 10; k++ {
				r.Hold(p, 1, Duration(k+i+1)*time.Microsecond)
				p.Trace("held", fmt.Sprint(k))
			}
		})
	}
	e.After(17*time.Microsecond, func() {
		e.Spawn("late", func(p *Proc) {
			p.Sleep(time.Microsecond)
			p.Trace("late", "")
		})
	})
}

// TestBatonRunUntilResumesWhereLeft: repeated RunUntil calls — obsserve's
// paced clock, the partitioned windows — hand the baton back to the caller
// at every deadline and pick it up where it was left, producing exactly the
// trace and event count of one Run.
func TestBatonRunUntilResumesWhereLeft(t *testing.T) {
	ref := NewEngine(3)
	refRec := &Recorder{}
	ref.SetTracer(refRec)
	buildBatonMix(ref)
	if err := ref.Run(); err != nil {
		t.Fatal(err)
	}
	ref.Shutdown()
	for _, step := range []Duration{time.Microsecond, 7 * time.Microsecond, 50 * time.Microsecond} {
		e := NewEngine(3)
		rec := &Recorder{}
		e.SetTracer(rec)
		buildBatonMix(e)
		calls := 0
		for {
			if err := e.RunUntil(e.Now().Add(step)); err != nil {
				t.Fatal(err)
			}
			calls++
			if _, ok := e.NextEventTime(); !ok {
				break
			}
		}
		e.Shutdown()
		if calls < 2 {
			t.Fatalf("step %v: one RunUntil covered the whole run", step)
		}
		if g, w := traceHash(rec), traceHash(refRec); g != w {
			t.Errorf("step %v: trace hash %#x after %d RunUntil calls, one Run gives %#x", step, g, calls, w)
		}
		if g, w := e.Events(), ref.Events(); g != w {
			t.Errorf("step %v: %d events, one Run dispatches %d", step, g, w)
		}
	}
}

// waitGoroutines waits for the goroutine count to drop back to base: retired
// pooled goroutines exit asynchronously after Shutdown's send.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestBatonStopStormShutdownNoLeak: Stop lands in the middle of a
// same-instant storm — pooled workers yielding at one instant, some spawned
// but never started — and Shutdown then reaps every goroutine, over 100
// engines.
func TestBatonStopStormShutdownNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := NewEngine(int64(i))
		wg := NewWaitGroup(e)
		yields, stopAt := 0, 2*32*4+i%97 // in the third round
		worker := func(p *Proc) {
			for k := 0; k < 4; k++ {
				p.Yield()
				if yields++; yields == stopAt {
					e.Stop()
					p.SpawnChild("never-started", func(p *Proc) { p.Sleep(time.Hour) })
				}
			}
			wg.Done()
		}
		e.Spawn("driver", func(p *Proc) {
			for {
				wg.Add(32)
				for w := 0; w < 32; w++ {
					p.SpawnChild("w", worker)
				}
				wg.Wait(p)
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if !e.Stopped() || e.LiveProcs() == 0 {
			t.Fatalf("engine %d: stopped=%v live=%d, want a stop mid-storm", i, e.Stopped(), e.LiveProcs())
		}
		e.Shutdown()
		if e.LiveProcs() != 0 {
			t.Fatalf("engine %d: %d live after Shutdown", i, e.LiveProcs())
		}
	}
	waitGoroutines(t, base)
}

// TestBatonPartitionedWorkersBitIdentical: with worker goroutines taking the
// baton of different partitions from window to window, a workers=2 run stays
// bit-identical to workers=1.
func TestBatonPartitionedWorkersBitIdentical(t *testing.T) {
	serial, parallel := runRing(t, 1), runRing(t, 2)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=2 diverged from workers=1:\n%+v\n%+v", parallel, serial)
	}
}
