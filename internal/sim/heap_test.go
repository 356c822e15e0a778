package sim

import (
	"container/heap"
	"math/rand"
	"testing"
	"time"
)

// refHeap is the reference the typed event heap is checked against:
// container/heap over the (t, key, seq) order, written out independently of
// before.
type refHeap []*event

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.t != b.t:
		return a.t < b.t
	case a.key != b.key:
		return a.key < b.key
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *refHeap) Pop() any {
	old := *h
	ev := old[len(old)-1]
	*h = old[:len(old)-1]
	return ev
}

// heapPair drives the typed heap and the reference in lockstep.
type heapPair struct {
	t   testing.TB
	got eventHeap
	ref refHeap
	seq uint64
}

func (hp *heapPair) push(t Time, key uint64) {
	hp.seq++
	ev := &event{t: t, key: key, seq: hp.seq}
	hp.got.push(ev)
	heap.Push(&hp.ref, ev)
}

func (hp *heapPair) pop() {
	hp.t.Helper()
	want := heap.Pop(&hp.ref).(*event)
	if got := hp.got.pop(); got != want {
		hp.t.Fatalf("pop = (t=%d key=%d seq=%d), reference pops (t=%d key=%d seq=%d)",
			got.t, got.key, got.seq, want.t, want.key, want.seq)
	}
}

// rekey assigns fresh keys to every queued event and restores both heaps,
// the path EnablePerturbation takes.
func (hp *heapPair) rekey(next func() uint64) {
	for _, ev := range hp.got {
		ev.key = next()
	}
	hp.got.init()
	heap.Init(&hp.ref)
}

func (hp *heapPair) drain() {
	hp.t.Helper()
	for len(hp.ref) > 0 {
		hp.pop()
	}
	if len(hp.got) != 0 {
		hp.t.Fatalf("typed heap holds %d events after the reference drained", len(hp.got))
	}
}

// TestEventHeapMatchesContainerHeap checks the typed heap against
// container/heap: on random interleavings of push and pop, with times and
// keys drawn from small ranges so ties on t and on (t, key) are common and
// seq decides; on re-keying and re-initialising heaps of every small size,
// empty and single-event included; and through the engine's own
// EnablePerturbation path.
func TestEventHeapMatchesContainerHeap(t *testing.T) {
	t.Run("interleaved", func(t *testing.T) {
		for seed := int64(1); seed <= 200; seed++ {
			rng := rand.New(rand.NewSource(seed))
			hp := &heapPair{t: t}
			for op := 0; op < 400; op++ {
				if len(hp.ref) > 0 && rng.Intn(5) < 2 {
					hp.pop()
					continue
				}
				hp.push(Time(rng.Intn(8)), uint64(rng.Intn(3)))
			}
			hp.rekey(func() uint64 { return uint64(rng.Intn(4)) })
			hp.drain()
		}
	})
	t.Run("rekey", func(t *testing.T) {
		for n := 0; n <= 40; n++ {
			rng := rand.New(rand.NewSource(int64(n)))
			hp := &heapPair{t: t}
			for i := 0; i < n; i++ {
				hp.push(Time(rng.Intn(4)), 0)
			}
			hp.rekey(rng.Uint64)
			hp.drain()
		}
	})
	// 0, 1 and many queued events, split between the ready ring (due now)
	// and the heap (due later): every event must pop exactly once, in
	// (t, key, seq) order and in the order container/heap gives.
	t.Run("EnablePerturbation", func(t *testing.T) {
		for _, n := range []int{0, 1, 2, 5, 64} {
			e := NewEngine(1)
			for i := 0; i < n; i++ {
				e.After(Duration(i%3)*time.Microsecond, func() {})
			}
			e.EnablePerturbation(int64(n))
			if e.ready.len() != 0 {
				t.Fatalf("n=%d: %d events left on the ready ring", n, e.ready.len())
			}
			ref := append(refHeap(nil), e.events...)
			heap.Init(&ref)
			var prev *event
			for i := 0; i < n; i++ {
				got, want := e.popEvent(), heap.Pop(&ref).(*event)
				if got != want {
					t.Fatalf("n=%d: pop %d differs from container/heap", n, i)
				}
				if prev != nil && !before(prev, got) {
					t.Fatalf("n=%d: pop %d out of (t, key, seq) order", n, i)
				}
				prev = got
			}
			if len(e.events) != 0 {
				t.Fatalf("n=%d: %d events left after %d pops", n, len(e.events), n)
			}
		}
	})
}

// FuzzEventHeapOrder checks the typed heap against container/heap on an
// arbitrary op stream. Each byte is one op: an odd byte pops, an even byte
// pushes an event whose time and key come from its upper bits. The stream's
// tail re-keys whatever is still queued before the final drain.
func FuzzEventHeapOrder(f *testing.F) {
	f.Add([]byte{0, 2, 4, 1, 1, 1})
	f.Add([]byte{0x10, 0x20, 0x30, 0x40, 0x50, 1, 0x60, 0x70, 1, 1})
	f.Add([]byte{0xfe, 0xfc, 0x02, 0x04, 0x06, 0x08, 0x0a})
	f.Fuzz(func(t *testing.T, ops []byte) {
		hp := &heapPair{t: t}
		for _, b := range ops {
			if b&1 == 1 {
				if len(hp.ref) > 0 {
					hp.pop()
				}
				continue
			}
			hp.push(Time(b>>5), uint64(b>>1&3))
		}
		i := 0
		hp.rekey(func() uint64 {
			i++
			if i > len(ops) {
				return 0
			}
			return uint64(ops[len(ops)-i] & 7)
		})
		hp.drain()
	})
}
