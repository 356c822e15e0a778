package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// buildPingScenario populates one engine with a self-contained workload:
// a producer/consumer pair plus a ticker, enough to exercise spawn, queue
// handoffs, and timers.
func buildPingScenario(e *Engine, msgs int) {
	q := NewQueue[int](e, "ping", 0)
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < msgs; i++ {
			p.Sleep(3 * time.Microsecond)
			q.Send(p, i)
		}
		q.Close()
	})
	e.Spawn("consumer", func(p *Proc) {
		for {
			if _, ok := q.Recv(p); !ok {
				return
			}
			p.Sleep(time.Microsecond)
		}
	})
}

// TestPartitionedDegeneratesToSerial pins that a one-partition Partitioned
// run is bit-identical to the plain serial engine: same seed, same trace,
// same event count.
func TestPartitionedDegeneratesToSerial(t *testing.T) {
	serial := NewEngine(42)
	serialRec := &Recorder{}
	serial.SetTracer(serialRec)
	buildPingScenario(serial, 50)
	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}

	pe := NewPartitioned(42, 1)
	partRec := &Recorder{}
	pe.Engine(0).SetTracer(partRec)
	buildPingScenario(pe.Engine(0), 50)
	if err := pe.Run(1); err != nil {
		t.Fatal(err)
	}

	if g, w := partRec.Fingerprint(), serialRec.Fingerprint(); g != w {
		t.Fatalf("one-partition trace hash %#x differs from serial %#x", g, w)
	}
	if g, w := pe.Events(), serial.Events(); g != w {
		t.Fatalf("one-partition events %d, serial %d", g, w)
	}
}

// ringResult captures everything observable from one partitioned ring run.
type ringResult struct {
	hashes  []uint64
	events  []uint64
	logs    [][]string
	spanned []int // distinct windows each receiver was resumed in
	win     uint64
	cross   uint64
}

// runRing builds a 4-partition ring: each partition sends `msgs` timed
// messages clockwise and consumes the counter-clockwise neighbour's, with
// per-send promises at the send cadence. Each delivery spawns a short job,
// so pooled processes start new lives from window to window.
func runRing(t *testing.T, workers int) ringResult {
	t.Helper()
	const parts = 4
	const msgs = 40
	const period = 50 * time.Microsecond
	const latency = 2 * time.Microsecond

	pe := NewPartitioned(7, parts)
	recs := make([]*Recorder, parts)
	logs := make([][]string, parts)
	for i := 0; i < parts; i++ {
		recs[i] = &Recorder{}
		pe.Engine(i).SetTracer(recs[i])
	}
	inbox := make([]*Queue[int], parts)
	seen := make([]map[uint64]bool, parts)
	for i := 0; i < parts; i++ {
		inbox[i] = NewQueue[int](pe.Engine(i), "inbox", 0)
		seen[i] = make(map[uint64]bool)
	}
	job := func(p *Proc) {
		p.Sleep(3 * time.Microsecond)
		p.Trace("job", "")
	}
	for i := 0; i < parts; i++ {
		l := pe.Connect(fmt.Sprintf("ring.%d", i), i, (i+1)%parts, latency)
		BindQueue(l, inbox[(i+1)%parts])
		i := i
		pe.Engine(i).Spawn("sender", func(p *Proc) {
			for k := 0; k < msgs; k++ {
				p.Sleep(period)
				l.Send(i*1000 + k)
				l.Promise(p.Now().Add(period + latency))
			}
		})
		pe.Engine(i).Spawn("receiver", func(p *Proc) {
			for k := 0; k < msgs; k++ {
				v, ok := inbox[i].Recv(p)
				if !ok {
					t.Error("inbox closed early")
					return
				}
				logs[i] = append(logs[i], fmt.Sprintf("%d@%d", v, int64(p.Now())))
				seen[i][pe.windows] = true
				p.SpawnChild("job", job)
			}
		})
	}
	if err := pe.Run(workers); err != nil {
		t.Fatal(err)
	}
	if b := pe.Blocked(); len(b) != 0 {
		t.Fatalf("blocked processes after drain: %v", b)
	}
	res := ringResult{win: pe.Windows(), cross: pe.CrossMessages(), logs: logs}
	for i := 0; i < parts; i++ {
		res.hashes = append(res.hashes, recs[i].Fingerprint())
		res.events = append(res.events, pe.Engine(i).Events())
		res.spanned = append(res.spanned, len(seen[i]))
	}
	pe.Shutdown()
	return res
}

// TestPartitionedDeterministicAcrossWorkers pins bit-identical traces, event
// counts, and delivery logs at every worker count, including worker counts
// above the partition count.
func TestPartitionedDeterministicAcrossWorkers(t *testing.T) {
	base := runRing(t, 1)
	if base.cross != 4*40 {
		t.Fatalf("cross messages = %d, want %d", base.cross, 4*40)
	}
	if base.win == 0 {
		t.Fatal("no windows executed")
	}
	for _, workers := range []int{2, 8} {
		got := runRing(t, workers)
		for i := range base.hashes {
			if got.hashes[i] != base.hashes[i] {
				t.Errorf("workers=%d: partition %d trace hash %#x != serial %#x",
					workers, i, got.hashes[i], base.hashes[i])
			}
			if got.events[i] != base.events[i] {
				t.Errorf("workers=%d: partition %d events %d != serial %d",
					workers, i, got.events[i], base.events[i])
			}
		}
		for i := range base.logs {
			if strings.Join(got.logs[i], ",") != strings.Join(base.logs[i], ",") {
				t.Errorf("workers=%d: partition %d delivery log diverged", workers, i)
			}
		}
		if got.win != base.win || got.cross != base.cross {
			t.Errorf("workers=%d: windows/cross %d/%d != serial %d/%d",
				workers, got.win, got.cross, base.win, base.cross)
		}
	}
}

// tieBreakOrder runs two partitions delivering to a third at the same
// instant and returns the arrival order. Link registration order is flipped
// by `flip`; the first-registered link must win the tie at any worker count.
func tieBreakOrder(t *testing.T, flip bool, workers int) []string {
	t.Helper()
	pe := NewPartitioned(1, 3)
	var order []string
	bind := func(l *CrossLink) {
		l.Bind(func(at Time, v any) {
			if now := pe.Engine(2).Now(); now != at {
				t.Errorf("delivery at engine time %v, stamped %v", now, at)
			}
			order = append(order, v.(string))
		})
	}
	// a sends at 10us over 5us latency, b at 12us over 3us: both arrive at
	// exactly 15us.
	mk := func(src int, name string, sendAt, latency time.Duration) {
		l := pe.Connect(name, src, 2, latency)
		bind(l)
		pe.Engine(src).Spawn(name, func(p *Proc) {
			p.Sleep(sendAt)
			l.Send(name)
		})
	}
	if flip {
		mk(1, "b", 12*time.Microsecond, 3*time.Microsecond)
		mk(0, "a", 10*time.Microsecond, 5*time.Microsecond)
	} else {
		mk(0, "a", 10*time.Microsecond, 5*time.Microsecond)
		mk(1, "b", 12*time.Microsecond, 3*time.Microsecond)
	}
	if err := pe.Run(workers); err != nil {
		t.Fatal(err)
	}
	pe.Shutdown()
	return order
}

// TestCrossPartitionSameInstantTieBreak pins the deterministic merge order
// of same-instant cross-partition deliveries: link registration order, not
// arrival-of-worker order.
func TestCrossPartitionSameInstantTieBreak(t *testing.T) {
	for _, workers := range []int{1, 3} {
		if got := tieBreakOrder(t, false, workers); strings.Join(got, ",") != "a,b" {
			t.Errorf("workers=%d: order %v, want [a b]", workers, got)
		}
		if got := tieBreakOrder(t, true, workers); strings.Join(got, ",") != "b,a" {
			t.Errorf("workers=%d flipped: order %v, want [b a]", workers, got)
		}
	}
}

// TestConservativeViolationFails pins that a send landing inside the current
// window — a lying promise — surfaces as a run error naming the link.
func TestConservativeViolationFails(t *testing.T) {
	pe := NewPartitioned(1, 2)
	l := pe.Connect("liar", 0, 1, 10*time.Microsecond)
	l.Bind(func(Time, any) {})
	// Promise no delivery before 1ms, then send one at ~15us.
	l.Promise(Time(time.Millisecond))
	pe.Engine(0).Spawn("sender", func(p *Proc) {
		p.Sleep(5 * time.Microsecond)
		l.Send("late")
	})
	// Keep partition 1 busy so the window horizon is governed by the liar's
	// promise.
	pe.Engine(1).Spawn("ticker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Sleep(10 * time.Microsecond)
		}
	})
	err := pe.Run(1)
	if err == nil || !strings.Contains(err.Error(), "conservative violation") {
		t.Fatalf("err = %v, want conservative violation", err)
	}
	pe.Shutdown()
}

// TestExchangeRejectsPastDelivery forges a delivery behind the destination
// engine's clock: exchange must panic naming the link instead of letting
// Engine.At clamp it to the present.
func TestExchangeRejectsPastDelivery(t *testing.T) {
	pe := NewPartitioned(1, 2)
	l := pe.Connect("forged", 0, 1, 10*time.Microsecond)
	l.Bind(func(Time, any) {})
	pe.Engine(1).Spawn("sleeper", func(p *Proc) { p.Sleep(50 * time.Microsecond) })
	if err := pe.Engine(1).RunUntil(Time(100 * time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	l.outbox = append(l.outbox, crossMsg{t: Time(20 * time.Microsecond), v: "stale"})
	r := func() (r any) {
		defer func() { r = recover() }()
		pe.exchange()
		return nil
	}()
	if msg, _ := r.(string); !strings.Contains(msg, "conservative violation") || !strings.Contains(msg, `"forged"`) {
		t.Fatalf("exchange recovered %v, want a conservative violation naming the link", r)
	}
	pe.Shutdown()
}

// TestPartitionedStopPropagates pins that one partition's Stop ends the
// whole ensemble even while other partitions still have unbounded work.
func TestPartitionedStopPropagates(t *testing.T) {
	pe := NewPartitioned(3, 2)
	// Links both ways keep window horizons finite for both partitions.
	pe.Connect("fwd", 0, 1, 5*time.Microsecond).Bind(func(Time, any) {})
	pe.Connect("rev", 1, 0, 5*time.Microsecond).Bind(func(Time, any) {})
	ticks := 0
	pe.Engine(0).Spawn("forever", func(p *Proc) {
		for {
			p.Sleep(time.Microsecond)
			ticks++
		}
	})
	e1 := pe.Engine(1)
	e1.Spawn("stopper", func(p *Proc) {
		p.Sleep(100 * time.Microsecond)
		e1.Stop()
	})
	if err := pe.Run(2); err != nil {
		t.Fatal(err)
	}
	if ticks == 0 {
		t.Fatal("partition 0 never ran")
	}
	if now := pe.Now(); now > Time(time.Millisecond) {
		t.Fatalf("run continued to %v after Stop at 100us", now)
	}
	pe.Shutdown()
}

// TestPartitionedBlockedReporting pins the aggregate liveness report: a
// process waiting on a message that never comes is visible after the drain.
func TestPartitionedBlockedReporting(t *testing.T) {
	pe := NewPartitioned(5, 2)
	q := NewQueue[int](pe.Engine(0), "never", 0)
	pe.Engine(0).Spawn("waiter", func(p *Proc) { q.Recv(p) })
	if err := pe.Run(1); err != nil {
		t.Fatal(err)
	}
	b := pe.Blocked()
	if len(b) != 1 || !strings.Contains(b[0], "p0/waiter") {
		t.Fatalf("blocked = %v, want one p0/waiter entry", b)
	}
	pe.Shutdown()
}

// TestSpawnPoolReuse pins the spawn-path pooling: after a wave of processes
// retires, the next wave reuses their Procs and goroutines instead of
// allocating new ones.
func TestSpawnPoolReuse(t *testing.T) {
	e := NewEngine(1)
	const wave = 64
	runWave := func() {
		done := NewWaitGroup(e)
		done.Add(wave)
		for i := 0; i < wave; i++ {
			e.Spawn("w", func(p *Proc) {
				p.Sleep(time.Microsecond)
				done.Done()
			})
		}
		e.Spawn("driver", func(p *Proc) { done.Wait(p) })
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	runWave()
	if got := len(e.procFree); got != wave+1 {
		t.Fatalf("pool holds %d procs after first wave, want %d", got, wave+1)
	}
	before := runtime.NumGoroutine()
	seen := make(map[*Proc]bool)
	for _, p := range e.procFree {
		seen[p] = true
	}
	runWave()
	for _, p := range e.procFree {
		if !seen[p] {
			t.Fatal("second wave allocated a fresh Proc instead of reusing the pool")
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines grew %d -> %d across a pooled wave", before, after)
	}
	e.Shutdown()
	// Shutdown retires the pooled goroutines; give the scheduler a moment.
	for i := 0; i < 100 && runtime.NumGoroutine() >= before; i++ {
		runtime.Gosched()
	}
	if e.procFree != nil {
		t.Fatal("Shutdown left the proc pool populated")
	}
}
