package sim

import (
	"runtime"
	"testing"
	"time"
)

// reportEventsPerSec attaches the kernel's dispatched-events-per-wall-second
// rate; bench/ tracks the same dispatch cost as sim.dispatch_ns.
func reportEventsPerSec(b *testing.B, e *Engine) {
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(e.Events())/s, "events/sec")
	}
}

// BenchmarkEventThroughput measures raw scheduler throughput: how many
// timer events the kernel retires per wall second. Each wakeup is the
// sleeping process's own, so this is the baton's self-resume path: no
// goroutine switch and 0 allocs/op (TestBatonSelfResumeNoSwitch).
func BenchmarkEventThroughput(b *testing.B) {
	e := NewEngine(1)
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventsPerSec(b, e)
}

// BenchmarkProcessPingPong measures the cost of a queue handoff between two
// processes (two context switches per op).
func BenchmarkProcessPingPong(b *testing.B) {
	e := NewEngine(1)
	q1 := NewQueue[int](e, "q1", 0)
	q2 := NewQueue[int](e, "q2", 0)
	e.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Send(p, i)
			q2.Recv(p)
		}
	})
	e.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q1.Recv(p)
			q2.Send(p, i)
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventsPerSec(b, e)
}

// BenchmarkManyBlockedProcs measures wakeup fan-out with 1000 waiters.
func BenchmarkManyBlockedProcs(b *testing.B) {
	e := NewEngine(1)
	for i := 0; i < b.N; i++ {
		ev := NewEvent(e)
		for w := 0; w < 1000; w++ {
			e.Spawn("w", func(p *Proc) { ev.Wait(p) })
		}
		e.After(time.Microsecond, ev.Fire)
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
	}
	reportEventsPerSec(b, e)
}

// BenchmarkSameTimeBatch measures the ready-ring batch path: per op, 256
// processes are spawned, all wake at the same instant, and retire — the
// spawn/dispatch/retire churn of a collective fan-out. With the pooled spawn
// path (Proc + wake channel + goroutine reuse, closure-free start events)
// the steady state allocates nothing in the kernel; the shared worker body
// and reusable WaitGroup keep the benchmark itself allocation-free too, so
// allocs/op measures the kernel (regression guard: TestSameTimeBatchAllocs).
func BenchmarkSameTimeBatch(b *testing.B) {
	e := NewEngine(1)
	const fanout = 256
	wg := NewWaitGroup(e)
	worker := func(p *Proc) {
		p.Sleep(time.Microsecond) // all wake at the same tick
		wg.Done()
	}
	e.Spawn("driver", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			wg.Add(fanout)
			for w := 0; w < fanout; w++ {
				p.SpawnChild("w", worker)
			}
			wg.Wait(p)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventsPerSec(b, e)
}

// TestSameTimeBatchAllocs is the allocs-per-op regression guard for the
// same-time-batch dispatch path: after warmup (pool populated, tables grown)
// a 256-process batch must stay at or below 16 allocations — it was 1285
// before the spawn path was pooled.
func TestSameTimeBatchAllocs(t *testing.T) {
	e := NewEngine(1)
	const fanout = 256
	const warm, measured = 32, 128
	wg := NewWaitGroup(e)
	worker := func(p *Proc) {
		p.Sleep(time.Microsecond)
		wg.Done()
	}
	var start, end runtime.MemStats
	e.Spawn("driver", func(p *Proc) {
		batch := func() {
			wg.Add(fanout)
			for w := 0; w < fanout; w++ {
				p.SpawnChild("w", worker)
			}
			wg.Wait(p)
		}
		for i := 0; i < warm; i++ {
			batch()
		}
		runtime.ReadMemStats(&start)
		for i := 0; i < measured; i++ {
			batch()
		}
		runtime.ReadMemStats(&end)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	perOp := float64(end.Mallocs-start.Mallocs) / measured
	if perOp > 16 {
		t.Fatalf("same-time batch dispatch allocates %.1f/op, budget 16", perOp)
	}
}

// TestFreshSpawnAllocs pins the host cost of a Proc the pool cannot serve:
// the Proc and its coroutine, which is built once per Proc and pooled with
// it. On Go 1.24 that is 13 allocations, 480 B: the Proc, the p.coro method
// value, and iter.Pull's state, closures and coro (its yielded value is a
// struct{}, which costs none). Pooled spawns allocate nothing
// (TestSameTimeBatchAllocs).
func TestFreshSpawnAllocs(t *testing.T) {
	const wave = 256
	e := NewEngine(1)
	body := func(p *Proc) { p.Sleep(time.Microsecond) }
	runWave := func() {
		for i := 0; i < wave; i++ {
			e.Spawn("w", body)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	runWave() // grow the process table, ready ring and event freelist
	var start, end runtime.MemStats
	var mallocs, bytes uint64
	const waves = 4
	for i := 0; i < waves; i++ {
		for _, p := range e.procFree {
			p.stop()
		}
		clear(e.procFree)
		e.procFree = e.procFree[:0]
		runtime.ReadMemStats(&start)
		runWave()
		runtime.ReadMemStats(&end)
		mallocs += end.Mallocs - start.Mallocs
		bytes += end.TotalAlloc - start.TotalAlloc
	}
	e.Shutdown()
	perSpawn := float64(mallocs) / (waves * wave)
	bytesPerSpawn := float64(bytes) / (waves * wave)
	t.Logf("fresh Spawn: %.1f mallocs, %.0f B", perSpawn, bytesPerSpawn)
	if perSpawn > 14 || bytesPerSpawn > 600 {
		t.Fatalf("fresh Spawn allocates %.1f times / %.0f B, budget 14 / 600 B", perSpawn, bytesPerSpawn)
	}
}

// flowVsProcHold is the per-op service time of BenchmarkFlowVsProc.
const flowVsProcHold = time.Microsecond

// benchSender is the flow form of BenchmarkFlowVsProc's op, shaped like
// internal/ib's sendFlow: acquire the device, hold it, release it, end.
// Senders are pooled with their bound step, as sendFlows are, so the flow
// path allocates nothing in steady state.
type benchSender struct {
	r     *Resource
	stage int
	done  func()
	pool  *[]*benchSender
	step  func(*Proc, int)
}

func (s *benchSender) run(p *Proc, _ int) {
	switch s.stage {
	case 0:
		if !s.r.FlowAcquireStart(p, 1) {
			s.stage = 1
			return
		}
		s.stage = 2
		p.FlowSleep(flowVsProcHold)
	case 1:
		if !s.r.FlowAcquireRetry(p, 1) {
			return
		}
		s.stage = 2
		p.FlowSleep(flowVsProcHold)
	case 2:
		s.r.Release(1)
		p.FlowEnd()
		s.stage = 0
		*s.pool = append(*s.pool, s)
		s.done()
	}
}

// BenchmarkFlowVsProc runs the same op — acquire a unit-capacity Resource,
// sleep, release — once as a flow (SpawnFlow) and once as a pooled
// goroutine-backed process (Spawn), in waves of 16 contending senders so
// most acquisitions queue. ns/op and allocs/op compare the two mechanisms
// under baton dispatch.
func BenchmarkFlowVsProc(b *testing.B) {
	const wave = 16
	// run drives b.N senders in waves; mk returns the function that spawns
	// one sender, which must call done when it ends.
	run := func(b *testing.B, mk func(e *Engine, r *Resource, done func()) func()) {
		e := NewEngine(1)
		r := NewResource(e, "tx", 1)
		left, inWave := b.N, 0
		var next func()
		spawn := mk(e, r, func() {
			if inWave--; inWave == 0 && left > 0 {
				next()
			}
		})
		next = func() {
			inWave = min(wave, left)
			left -= inWave
			for i := 0; i < inWave; i++ {
				spawn()
			}
		}
		e.After(0, next)
		b.ReportAllocs()
		b.ResetTimer()
		if err := e.Run(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		e.Shutdown()
	}
	b.Run("flow", func(b *testing.B) {
		run(b, func(e *Engine, r *Resource, done func()) func() {
			var pool []*benchSender
			return func() {
				var s *benchSender
				if n := len(pool); n > 0 {
					s, pool = pool[n-1], pool[:n-1]
				} else {
					s = &benchSender{r: r, done: done, pool: &pool}
					s.step = s.run
				}
				e.SpawnFlow("send", s.step)
			}
		})
	})
	b.Run("proc", func(b *testing.B) {
		run(b, func(e *Engine, r *Resource, done func()) func() {
			body := func(p *Proc) {
				r.Hold(p, 1, flowVsProcHold)
				done()
			}
			return func() { e.Spawn("send", body) }
		})
	})
}

// BenchmarkQueueChurn measures sustained queue traffic with a bounded
// backlog — the pattern the ring-buffer storage is built for.
func BenchmarkQueueChurn(b *testing.B) {
	e := NewEngine(1)
	q := NewQueue[int](e, "churn", 8)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Send(p, i)
		}
		q.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.Recv(p); !ok {
				return
			}
		}
	})
	b.ResetTimer()
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
	reportEventsPerSec(b, e)
}
