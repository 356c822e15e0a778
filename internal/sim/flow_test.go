package sim

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"
)

// stepFunc adapts a function to Flow.
type stepFunc func(p *Proc, reason int)

// Step implements Flow.
func (f stepFunc) Step(p *Proc, reason int) { f(p, reason) }

// TestFlowMatchesProcTrace is the flow conversion's safety proof: the same
// scenario — staggered workers contending for a capacity-2 resource, with
// deliberate same-instant collisions — built once from goroutine processes
// and once from flow state machines must produce byte-identical traces
// (same pids, same proc.start/proc.end records, same timestamps, same
// ordering). This is what lets ib.PostSend swap its per-message helper
// process for a pooled flow without moving a single golden-trace record.
func TestFlowMatchesProcTrace(t *testing.T) {
	const workers = 8
	delay := func(i int) Duration { return Duration(i%3) * time.Millisecond }
	hold := 2 * time.Millisecond

	runProcs := func() []Record {
		rec := &Recorder{}
		e := NewEngine(1)
		e.SetTracer(rec)
		r := NewResource(e, "dev", 2)
		for i := 0; i < workers; i++ {
			i := i
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				p.Sleep(delay(i))
				r.Acquire(p, 1)
				p.Trace("acquired", fmt.Sprint(i))
				p.Sleep(hold)
				r.Release(1)
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.Records
	}

	runFlows := func() []Record {
		rec := &Recorder{}
		e := NewEngine(1)
		e.SetTracer(rec)
		r := NewResource(e, "dev", 2)
		for i := 0; i < workers; i++ {
			i := i
			stage := 0
			var step func(p *Proc, reason int)
			step = func(p *Proc, reason int) {
				for {
					switch stage {
					case 0: // initial stagger
						stage = 1
						p.FlowSleep(delay(i))
						return
					case 1: // first acquire attempt
						if r.FlowAcquireStart(p, 1) {
							stage = 3
							continue
						}
						stage = 2
						return
					case 2: // woken from the resource queue
						if r.FlowAcquireRetry(p, 1) {
							stage = 3
							continue
						}
						return // spurious wake; still queued
					case 3: // holding
						p.Trace("acquired", fmt.Sprint(i))
						stage = 4
						p.FlowSleep(hold)
						return
					case 4:
						r.Release(1)
						p.FlowEnd()
						return
					}
				}
			}
			e.SpawnFlow(fmt.Sprintf("w%d", i), stepFunc(step))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.Records
	}

	procs, flows := runProcs(), runFlows()
	if !reflect.DeepEqual(procs, flows) {
		t.Fatalf("traces diverge:\nprocs (%d records) vs flows (%d records)", len(procs), len(flows))
	}
}

// freeLen counts the Procs on an engine freelist.
func freeLen(p *Proc) int {
	n := 0
	for ; p != nil; p = p.nextLive {
		n++
	}
	return n
}

// TestFreelistLIFO checks that the intrusive freelists hand back the most
// recently retired Proc first, the order the slice-backed pool had, and that
// recycling a flow allocates nothing once the engine is warm.
func TestFreelistLIFO(t *testing.T) {
	e := NewEngine(1)
	end := stepFunc(func(p *Proc, _ int) { p.FlowEnd() })
	var first [3]*Proc
	for i := range first {
		first[i] = e.SpawnFlow("f", end)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := freeLen(e.flowFree); got != len(first) {
		t.Fatalf("%d pooled flows, want %d", got, len(first))
	}
	// The flows ended in pid order, so the last one is on top.
	for i := len(first) - 1; i >= 0; i-- {
		if p := e.SpawnFlow("g", end); p != first[i] {
			t.Fatalf("respawn %d reused pid-%d Proc, want the Proc of spawn %d", len(first)-1-i, p.id, i)
		}
	}
	if e.flowFree != nil {
		t.Fatal("freelist not empty after reusing every pooled Proc")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.SpawnFlow("h", end)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("recycled SpawnFlow allocates %.1f objects, want 0", allocs)
	}
	e.Shutdown()
}

// TestFlowRecycling checks that retired flow Procs are reused without
// leaking wakeups across lives: a recycled Proc's token keeps growing, so a
// stale event addressed to a previous life must never fire the new one.
func TestFlowRecycling(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	for gen := 0; gen < 100; gen++ {
		e.SpawnFlow("f", stepFunc(func(p *Proc, reason int) {
			ran++
			p.FlowEnd()
		}))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if ran != 100 {
		t.Fatalf("ran = %d, want 100", ran)
	}
	if got := freeLen(e.flowFree); got == 0 {
		t.Fatal("no flow Procs were recycled")
	}
}

// TestFlowDeadlockReported checks that a flow parked forever shows up in the
// deadlock report like any other process.
func TestFlowDeadlockReported(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "dev", 1)
	e.Spawn("holder", func(p *Proc) {
		r.Acquire(p, 1) // acquired, never released
	})
	e.SpawnFlow("stuck", stepFunc(func(p *Proc, reason int) {
		if r.FlowAcquireStart(p, 1) {
			t.Error("acquire unexpectedly succeeded")
			p.FlowEnd()
		}
		// parks forever: holder never releases
	}))
	err := e.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// ownedFlow is a flow whose Proc its caller owns: the Proc is embedded in
// the state the step drives, as an MPI connection embeds its pump.
type ownedFlow struct {
	p     Proc
	steps int
	park  bool // park forever at the first step instead of sleeping
}

// Step implements Flow: sleep twice, then end; or park for good.
func (f *ownedFlow) Step(p *Proc, _ int) {
	switch {
	case f.park:
		p.FlowPark("queue.recv", "owned")
	case f.steps < 2:
		f.steps++
		p.FlowSleep(time.Millisecond)
	default:
		p.FlowEnd()
	}
}

// TestFlowOwnedMatchesSpawnFlow runs one scenario twice — a pooled flow and
// a coroutine process beside each other, then three short flows and one that
// parks forever — once with SpawnFlow and once with SpawnFlowIn on owned
// Procs, reusing the owned Procs of the first round for the second. The two
// runs must be trace-equivalent: the same pids, proc.start/proc.end records
// and LiveProcs at every step, the same deadlock report, and the same
// records from Shutdown.
func TestFlowOwnedMatchesSpawnFlow(t *testing.T) {
	type outcome struct {
		records []Record
		live    []int
		blocked []string
	}
	scenario := func(owned bool) outcome {
		rec := &Recorder{}
		e := NewEngine(1)
		e.SetTracer(rec)
		var o outcome
		flows := make([]ownedFlow, 4)
		spawn := func(i int, name string) {
			flows[i].steps = 0
			if owned {
				e.SpawnFlowIn(&flows[i].p, name, &flows[i])
			} else {
				e.SpawnFlow(name, &flows[i])
			}
			o.live = append(o.live, e.LiveProcs())
		}
		e.Spawn("proc", func(p *Proc) { p.Sleep(time.Millisecond) })
		for i := 0; i < 3; i++ {
			spawn(i, fmt.Sprintf("f%d", i))
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		o.live = append(o.live, e.LiveProcs())
		for i := 0; i < 3; i++ {
			spawn(i, fmt.Sprintf("g%d", i))
		}
		flows[3].park = true
		spawn(3, "stuck")
		var dl *DeadlockError
		if err := e.Run(); !errors.As(err, &dl) {
			t.Fatalf("owned=%v: Run = %v, want a deadlock", owned, err)
		}
		o.blocked = dl.Blocked
		o.live = append(o.live, e.LiveProcs())
		e.Shutdown()
		o.live = append(o.live, e.LiveProcs())
		o.records = rec.Records
		if owned && !flows[3].p.Idle() {
			t.Error("an owned flow is not Idle after Shutdown")
		}
		return o
	}
	pooled, owned := scenario(false), scenario(true)
	if !reflect.DeepEqual(pooled, owned) {
		t.Fatalf("owned flows diverge from SpawnFlow:\npooled %+v\nowned  %+v", pooled, owned)
	}
	if len(owned.records) == 0 || len(owned.blocked) != 1 {
		t.Fatalf("scenario traced %d records and %d blocked processes, want a trace and 1", len(owned.records), len(owned.blocked))
	}
}

// TestFlowOwnedDropsStaleWake respawns an owned flow while a wake addressed
// to its previous life is queued ahead of the new life's start event, at the
// same instant. The respawn bumps the token, so the stale wake must be
// dropped: the new life is stepped by its start event and its own sleep
// only, never with the stale wake's reason.
func TestFlowOwnedDropsStaleWake(t *testing.T) {
	const staleReason = 7
	e := NewEngine(1)
	var p Proc
	var reasons []int
	second := stepFunc(func(p *Proc, reason int) {
		reasons = append(reasons, reason)
		if len(reasons) == 1 {
			p.FlowSleep(time.Millisecond)
			return
		}
		p.FlowEnd()
	})
	first := stepFunc(func(p *Proc, _ int) {
		e.scheduleResume(p, e.now, staleReason)
		p.FlowEnd()
		if !p.Idle() {
			t.Error("an ended owned flow is not Idle")
		}
		e.SpawnFlowIn(p, "second", second)
	})
	if !p.Idle() {
		t.Fatal("a zero Proc is not Idle")
	}
	e.SpawnFlowIn(&p, "first", first)
	if p.Idle() {
		t.Fatal("a spawned owned flow is Idle")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []int{wakeSignal, wakeSignal}; !reflect.DeepEqual(reasons, want) {
		t.Fatalf("second life stepped with reasons %v, want %v", reasons, want)
	}
	if e.Now() != Time(time.Millisecond) || !p.Idle() || e.LiveProcs() != 0 {
		t.Fatalf("ended at %v with Idle=%v and %d live, want 1ms, true and 0", e.Now(), p.Idle(), e.LiveProcs())
	}
}

// TestFlowOwnedNeverPooled checks that an ended owned flow stays with its
// owner: it never enters the engine's freelist, so SpawnFlow never hands it
// out, and its next SpawnFlowIn reuses it in place without allocating.
func TestFlowOwnedNeverPooled(t *testing.T) {
	e := NewEngine(1)
	end := stepFunc(func(p *Proc, _ int) { p.FlowEnd() })
	var owned [3]Proc
	for i := range owned {
		e.SpawnFlowIn(&owned[i], "owned", end)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.flowFree != nil {
		t.Fatalf("%d owned Procs entered the freelist", freeLen(e.flowFree))
	}
	for i := 0; i < 10; i++ {
		p := e.SpawnFlow("pooled", end)
		for j := range owned {
			if p == &owned[j] {
				t.Fatalf("SpawnFlow returned owned Proc %d", j)
			}
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		e.SpawnFlowIn(&owned[0], "owned", end)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("respawning an owned flow allocates %.1f objects, want 0", allocs)
	}
	e.Shutdown()
}

// TestFlowOwnedLiveSpawnPanics checks that SpawnFlowIn refuses a Proc whose
// life has not ended: before its start event fires, and while it is parked.
func TestFlowOwnedLiveSpawnPanics(t *testing.T) {
	e := NewEngine(1)
	var p Proc
	park := stepFunc(func(p *Proc, _ int) { p.FlowPark("test", "parked") })
	mustPanic := func(when string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("SpawnFlowIn on a live flow %s did not panic", when)
			}
		}()
		e.SpawnFlowIn(&p, "again", park)
	}
	e.SpawnFlowIn(&p, "parked", park)
	mustPanic("before its start")
	if err := e.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	mustPanic("while parked")
	if e.LiveProcs() != 1 {
		t.Fatalf("%d live processes after the refused spawns, want 1", e.LiveProcs())
	}
	e.Shutdown()
	if !p.Idle() {
		t.Fatal("a flow retired by Shutdown is not Idle")
	}
}
