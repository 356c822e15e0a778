package sim

import (
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
