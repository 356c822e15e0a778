package sim

import (
	"testing"
	"time"
)

func TestRingFIFOAndWrap(t *testing.T) {
	var r ring[int]
	if r.len() != 0 || r.capacity() != 0 {
		t.Fatalf("zero ring: len=%d cap=%d, want 0,0", r.len(), r.capacity())
	}
	// Keep 3 live elements while cycling 100 through, forcing many wraps of
	// the initial 8-slot buffer; FIFO order must hold throughout.
	for i := 0; i < 3; i++ {
		r.push(i)
	}
	for i := 3; i < 100; i++ {
		if got := r.pop(); got != i-3 {
			t.Fatalf("pop: got %d, want %d", got, i-3)
		}
		r.push(i)
	}
	if c := r.capacity(); c != 8 {
		t.Errorf("capacity grew to %d with 3 live elements", c)
	}
	r.clear()
	if r.len() != 0 {
		t.Fatalf("clear left %d elements", r.len())
	}
	if got := func() (p any) { defer func() { p = recover() }(); r.pop(); return }(); got == nil {
		t.Error("pop from empty ring did not panic")
	}
}

func TestRingOrderAcrossGrowth(t *testing.T) {
	var r ring[int]
	// Offset head so growth has to un-wrap a wrapped buffer.
	for i := 0; i < 5; i++ {
		r.push(-1)
	}
	for i := 0; i < 5; i++ {
		r.pop()
	}
	for i := 0; i < 100; i++ {
		r.push(i)
	}
	for i := 0; i < 100; i++ {
		if got := r.pop(); got != i {
			t.Fatalf("pop %d: got %d", i, got)
		}
	}
	if r.len() != 0 {
		t.Fatalf("ring not drained: %d left", r.len())
	}
}

// TestRingCapacityBounded is the memory-retention regression test: the old
// `items = items[1:]` idiom grew the backing array in proportion to total
// traffic, not live population. A ring with a small steady-state population
// must keep a small constant capacity no matter how many items flow through.
func TestRingCapacityBounded(t *testing.T) {
	var r ring[int]
	for i := 0; i < 1_000_000; i++ {
		r.push(i)
		if r.len() > 4 {
			r.pop()
		}
	}
	if c := r.capacity(); c > 8 {
		t.Errorf("capacity %d after 1M pushes with live population <=4; retention bug", c)
	}
}

// TestQueueSteadyStateCapacityBounded asserts the same property through the
// public Queue API: heavy producer/consumer churn with a bounded backlog must
// not grow the queue's storage without bound.
func TestQueueSteadyStateCapacityBounded(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, "churn", 0)
	const rounds = 200_000
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			q.Send(p, i)
			if i%4 == 3 {
				p.Sleep(time.Microsecond)
			}
		}
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			if v, ok := q.Recv(p); !ok || v != i {
				t.Errorf("recv %d: got %v,%v", i, v, ok)
				return
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if c := q.items.capacity(); c > 64 {
		t.Errorf("queue backing capacity %d after %d sends with small backlog; retention bug", c, rounds)
	}
}

// TestEngineEventsCounter sanity-checks the dispatched-event telemetry used
// by the benchmark harness: it must start at zero and strictly grow with
// work performed.
func TestEngineEventsCounter(t *testing.T) {
	e := NewEngine(1)
	if e.Events() != 0 {
		t.Fatalf("fresh engine reports %d events", e.Events())
	}
	e.Spawn("worker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if e.Events() < 10 {
		t.Errorf("events = %d after 10 sleeps, want >= 10", e.Events())
	}
}
