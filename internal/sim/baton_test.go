package sim

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestBatonSelfResumeNoSwitch pins the self-resume fast path: a process
// whose own wakeup is the next event gets it straight back from the
// dispatcher it runs in park, without a coroutine switch (the trampoline's
// switch counter stands still) and without an allocation.
func TestBatonSelfResumeNoSwitch(t *testing.T) {
	e := NewEngine(1)
	var allocs float64
	var switches uint64
	e.Spawn("ticker", func(p *Proc) {
		before := e.switches
		allocs = testing.AllocsPerRun(1000, func() { p.Sleep(time.Microsecond) })
		switches = e.switches - before
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if switches != 0 {
		t.Fatalf("self-resuming Sleep made %d coroutine switches, want 0", switches)
	}
	if allocs != 0 {
		t.Fatalf("self-resuming Sleep allocates %.1f/op, want 0", allocs)
	}
	if e.Now() != Time(1001*time.Microsecond) {
		t.Fatalf("now = %v, want 1.001ms", e.Now())
	}
}

// TestBatonRecycledGoroutineRunsOwnNextLife: a pooled coroutine dispatching
// between lives that reaches the start event of its own recycled Proc runs
// the new life itself, with no switch through the trampoline.
func TestBatonRecycledGoroutineRunsOwnNextLife(t *testing.T) {
	e := NewEngine(1)
	var first, second *Proc
	var ended, began uint64
	e.Spawn("first", func(p *Proc) {
		first = p
		p.Sleep(time.Microsecond)
		ended = e.switches
	})
	e.After(2*time.Microsecond, func() {
		second = e.Spawn("second", func(p *Proc) {
			began = e.switches
			p.Sleep(time.Microsecond)
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if second != first {
		t.Fatal("second process did not reuse the first one's pooled Proc")
	}
	if began != ended {
		t.Fatalf("%d coroutine switches between the end of one life and the start of the next, want 0", began-ended)
	}
	if e.Now() != Time(3*time.Microsecond) {
		t.Fatalf("now = %v, want 3us", e.Now())
	}
}

// TestBatonCallbackPanicSurfacesFromRun: an engine callback that panics while
// a process coroutine holds the baton — parked in Sleep, idle in the pool
// between lives, or parked across earlier RunUntil windows — panics out of
// Run or RunUntil on the caller's goroutine with the same value, rather than
// being reported as a process failure.
func TestBatonCallbackPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ n int }
	cases := []struct {
		name  string
		step  Duration // RunUntil step; 0 runs with Run
		build func(e *Engine)
	}{
		// The ticker's own wakeups are the only events before the callback,
		// so it holds the baton when the callback fires.
		{"parked-process", 0, func(e *Engine) {
			e.Spawn("ticker", func(p *Proc) {
				for {
					p.Sleep(time.Microsecond)
				}
			})
		}},
		// The short process ends at 1us; its pooled coroutine dispatches on.
		{"between-lives", 0, func(e *Engine) {
			e.Spawn("short", func(p *Proc) { p.Sleep(time.Microsecond) })
		}},
		// The ticker stays parked across RunUntil windows; the panic
		// comes out of the third one.
		{"run-until", 2 * time.Microsecond, func(e *Engine) {
			e.Spawn("ticker", func(p *Proc) {
				for {
					p.Sleep(time.Microsecond)
				}
			})
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
				if c.step == 0 {
					err := e.Run()
					t.Errorf("Run returned %v instead of panicking", err)
					return nil
				}
				for e.Now() < Time(time.Millisecond) {
					if err := e.RunUntil(e.Now().Add(c.step)); err != nil {
						t.Errorf("RunUntil returned %v instead of panicking", err)
						return nil
					}
				}
				t.Errorf("RunUntil ran on to %v instead of panicking", e.Now())
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
// the run's error — when the panicking process got the baton from another
// process rather than from the Run caller, when it strikes in a fresh
// coroutine's first life before it ever parks or in a recycled life, and
// inside a RunUntil window — and Shutdown afterwards still ends every
// coroutine.
func TestBatonProcessPanicIsRunError(t *testing.T) {
	ticker := func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
		}
	}
	sleepThenPanic := func(e *Engine) {
		e.Spawn("ticker", ticker)
		e.Spawn("boom", func(p *Proc) {
			p.Sleep(3500 * time.Nanosecond)
			panic("kaboom")
		})
	}
	cases := []struct {
		name  string
		step  Duration // RunUntil step; 0 runs with Run
		build func(t *testing.T, e *Engine)
	}{
		{"handed-off", 0, func(t *testing.T, e *Engine) { sleepThenPanic(e) }},
		{"first-life", 0, func(t *testing.T, e *Engine) {
			e.Spawn("ticker", ticker)
			e.After(3500*time.Nanosecond, func() {
				e.Spawn("boom", func(p *Proc) { panic("kaboom") })
			})
		}},
		{"recycled-life", 0, func(t *testing.T, e *Engine) {
			short := e.Spawn("short", func(p *Proc) { p.Sleep(time.Microsecond) })
			e.Spawn("ticker", ticker)
			e.After(3500*time.Nanosecond, func() {
				if e.Spawn("boom", func(p *Proc) { panic("kaboom") }) != short {
					t.Error("boom did not reuse the short process's pooled Proc")
				}
			})
		}},
		{"run-until", 700 * time.Nanosecond, func(t *testing.T, e *Engine) { sleepThenPanic(e) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			e := NewEngine(1)
			c.build(t, e)
			var err error
			if c.step == 0 {
				err = e.Run()
			} else {
				for err == nil && e.Now() < Time(time.Millisecond) {
					err = e.RunUntil(e.Now().Add(c.step))
				}
			}
			if err == nil || !strings.Contains(err.Error(), `process "boom" panicked: kaboom`) {
				t.Fatalf("run error = %v, want the boom process's panic", err)
			}
			if e.Now() != Time(3500) {
				t.Fatalf("run went on to %v after the panic at 3.5us", e.Now())
			}
			e.Shutdown()
			waitGoroutines(t, base)
		})
	}
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

// waitGoroutines waits for the goroutine count to drop back to base, giving
// any goroutine that is still on its way out a moment to exit.
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
// but never started — and Shutdown then reaps every coroutine, over 100
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

// TestShutdownAfterRunUntilNoLeak: Shutdown after a RunUntil that left work
// pending brings the goroutine count back to its baseline, ending all three
// kinds of coroutine it can meet: idle pooled ones whose lives ended, ones
// parked in a simulated operation, and recycled Procs spawned but never
// started.
func TestShutdownAfterRunUntilNoLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine(1)
	q := NewQueue[int](e, "never", 0)
	const n = 8
	for i := 0; i < n; i++ {
		e.Spawn("short", func(p *Proc) { p.Sleep(time.Microsecond) })
		e.Spawn("daemon", func(p *Proc) { q.Recv(p) })
	}
	e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	if err := e.RunUntil(Time(time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if got := len(e.procFree); got != n {
		t.Fatalf("%d idle pooled procs after RunUntil, want %d", got, n)
	}
	for i := 0; i < n/2; i++ {
		p := e.Spawn("never-started", func(p *Proc) { t.Error("a process started after the last run") })
		if p.next == nil {
			t.Fatal("Spawn between runs did not recycle a pooled Proc")
		}
	}
	if g, want := runtime.NumGoroutine(), base+2*n+1; g < want {
		t.Fatalf("%d goroutines before Shutdown, want at least %d (one per coroutine)", g, want)
	}
	e.Shutdown()
	if e.LiveProcs() != 0 || e.procFree != nil {
		t.Fatalf("after Shutdown: %d live, pool %v", e.LiveProcs(), e.procFree)
	}
	waitGoroutines(t, base)
}

// TestBatonPartitionedWorkersBitIdentical: with workers=2, runWindow starts
// fresh worker goroutines for every window, so a process parked across a
// window boundary is resumed by a different goroutine than the one it last
// yielded to, coroutines built under one worker run under later ones, and
// pooled coroutines begin new lives under other workers. Under -race this
// checks that the coroutine switches order all of those accesses; the run
// must stay bit-identical to workers=1.
func TestBatonPartitionedWorkersBitIdentical(t *testing.T) {
	serial, parallel := runRing(t, 1), runRing(t, 2)
	for i, n := range parallel.spanned {
		if n < 10 {
			t.Fatalf("partition %d: receiver resumed in %d windows of %d, want >= 10", i, n, parallel.win)
		}
	}
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("workers=2 diverged from workers=1:\n%+v\n%+v", parallel, serial)
	}
}
