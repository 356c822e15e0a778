package sim

import (
	"container/heap"
	"math/rand"
	"reflect"
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

// fig7Delays are the six delays that cover 92% of the future events a
// fig7-shaped LU.C.64 op pushes (t − now, perturbation off), most common
// first.
var fig7Delays = [...]Duration{600, 1776, 10_000_000, 668_945, 2000, 994}

// wideDelay returns delay i of a set of 40 distinct delays, more than the
// engine has lanes, so lanes collide and some pushes fall back to the heap.
func wideDelay(i int) Duration { return Duration(100 + 37*(i%40)) }

// engineRef drives an engine's pushEvent and popEvent directly, against
// refHeap holding the same events.
type engineRef struct {
	t   testing.TB
	e   *Engine
	ref refHeap
	// laned, claimed and fallback count the pushes that a lane took behind
	// its tail, that claimed an empty lane (and went on the heap as its
	// head), and that found their lane held by another delay, so a test can
	// tell that it exercised each.
	laned, claimed, fallback int
}

func newEngineRef(t testing.TB) *engineRef { return &engineRef{t: t, e: NewEngine(1)} }

// at pushes an event due at absolute time t, which pushEvent clamps to now
// as At does.
func (r *engineRef) at(t Time) {
	ev := r.e.allocEvent()
	ev.t = t
	heapLen := len(r.e.events)
	r.e.pushEvent(ev)
	switch {
	case ev.t == r.e.now && r.e.perturb == nil:
	case len(r.e.events) == heapLen:
		r.laned++
	case ev.lane != 0:
		r.claimed++
	default:
		r.fallback++
	}
	heap.Push(&r.ref, ev)
}

// after pushes an event due d after now.
func (r *engineRef) after(d Duration) { r.at(r.e.now.Add(d)) }

// pop pops the next event from both, advancing now as dispatch does.
func (r *engineRef) pop() {
	r.t.Helper()
	want := heap.Pop(&r.ref).(*event)
	got := r.e.popEvent()
	if got != want {
		r.t.Fatalf("pop = (t=%d key=%d seq=%d), reference pops (t=%d key=%d seq=%d)",
			got.t, got.key, got.seq, want.t, want.key, want.seq)
	}
	if got.next != nil {
		r.t.Fatalf("popped event (t=%d seq=%d) still links another", got.t, got.seq)
	}
	r.e.now = got.t
	r.e.freeEvent(got)
}

// perturb enables perturbation with events queued: every queued event must
// move onto the heap once, unlinked, and the lanes must all be free.
func (r *engineRef) perturb(seed int64) {
	r.t.Helper()
	r.e.EnablePerturbation(seed)
	if r.e.ready.len() != 0 || len(r.e.events) != len(r.ref) {
		r.t.Fatalf("after EnablePerturbation: ring %d + heap %d events, %d queued",
			r.e.ready.len(), len(r.e.events), len(r.ref))
	}
	queued := make(map[*event]bool, len(r.ref))
	for _, ev := range r.ref {
		queued[ev] = true
	}
	for _, ev := range r.e.events {
		if !queued[ev] {
			r.t.Fatalf("event (t=%d seq=%d) is on the heap twice or was never queued", ev.t, ev.seq)
		}
		delete(queued, ev)
		if ev.next != nil || ev.lane != 0 {
			r.t.Fatalf("event (t=%d seq=%d) keeps next=%p lane=%d", ev.t, ev.seq, ev.next, ev.lane)
		}
	}
	if r.e.lanes != [len(r.e.lanes)]delayLane{} {
		r.t.Fatal("EnablePerturbation left a lane claimed")
	}
	heap.Init(&r.ref)
}

func (r *engineRef) drain() {
	r.t.Helper()
	for len(r.ref) > 0 {
		r.pop()
	}
	if n := r.e.ready.len() + len(r.e.events); n != 0 {
		r.t.Fatalf("engine holds %d events after the reference drained", n)
	}
	for i, l := range r.e.lanes {
		if l.tail != nil {
			r.t.Fatalf("lane %d still claimed for %v after the drain", i, l.delay)
		}
	}
}

// TestEngineEventOrderMatchesReference checks the engine's whole event queue
// — ready ring, delay lanes and heap — against container/heap ordered by
// (t, key, seq): delays from fig7's small set, so lanes carry most events;
// more distinct delays than lanes, so slots collide and fall back to the
// heap; absolute times as At pushes them; lanes that empty and are claimed
// by another delay; and perturbation enabled while chains are queued.
func TestEngineEventOrderMatchesReference(t *testing.T) {
	run := func(t *testing.T, seed int64, delay func(*rand.Rand) Duration) *engineRef {
		rng := rand.New(rand.NewSource(seed))
		r := newEngineRef(t)
		for op := 0; op < 2000; op++ {
			if len(r.ref) > 60 || (len(r.ref) > 0 && rng.Intn(2) == 0) {
				r.pop()
				continue
			}
			switch rng.Intn(8) {
			case 0:
				r.after(0)
			case 1:
				r.at(r.e.now + Time(rng.Intn(4000)) - 1000)
			default:
				r.after(delay(rng))
			}
		}
		r.drain()
		return r
	}
	t.Run("fig7 delays", func(t *testing.T) {
		for seed := int64(1); seed <= 50; seed++ {
			r := run(t, seed, func(rng *rand.Rand) Duration { return fig7Delays[rng.Intn(len(fig7Delays))] })
			if r.laned == 0 || r.claimed == 0 {
				t.Fatalf("seed %d: %d pushes chained, %d claimed a lane; want both", seed, r.laned, r.claimed)
			}
		}
	})
	t.Run("collisions", func(t *testing.T) {
		for seed := int64(1); seed <= 50; seed++ {
			r := run(t, seed, func(rng *rand.Rand) Duration { return wideDelay(rng.Intn(40)) })
			if r.laned == 0 || r.fallback == 0 {
				t.Fatalf("seed %d: %d pushes chained, %d fell back to the heap; want both", seed, r.laned, r.fallback)
			}
		}
	})
	t.Run("reclaim", func(t *testing.T) {
		// Two delays that share a lane: while the first holds it the second
		// goes to the heap; once the first's chain has popped, the second
		// claims the lane.
		a, b := Time(600), Time(0)
		for d := a + 1; b == 0; d++ {
			if laneIndex(d) == laneIndex(a) {
				b = d
			}
		}
		r := newEngineRef(t)
		r.after(Duration(a))
		r.after(Duration(a))
		r.after(Duration(b))
		if r.claimed != 1 || r.laned != 1 || r.fallback != 1 {
			t.Fatalf("first delay: %d claimed, %d chained, %d fell back; want 1 each", r.claimed, r.laned, r.fallback)
		}
		for len(r.ref) > 0 {
			r.pop()
		}
		r.after(Duration(b))
		r.after(Duration(b))
		if l := r.e.lanes[laneIndex(b)]; l.tail == nil || l.delay != b || r.claimed != 2 || r.laned != 2 {
			t.Fatalf("lane not re-claimed by %v: %+v, %d claimed, %d chained", b, l, r.claimed, r.laned)
		}
		r.drain()
	})
	t.Run("EnablePerturbation", func(t *testing.T) {
		for seed := int64(1); seed <= 50; seed++ {
			rng := rand.New(rand.NewSource(seed))
			r := newEngineRef(t)
			for i := rng.Intn(80); i > 0; i-- {
				if len(r.ref) > 0 && rng.Intn(4) == 0 {
					r.pop()
					continue
				}
				r.after(fig7Delays[rng.Intn(3)] * Duration(1+rng.Intn(2)))
			}
			r.perturb(seed)
			for i := 0; i < 40; i++ {
				r.after(fig7Delays[rng.Intn(len(fig7Delays))])
			}
			if len(r.e.events) != len(r.ref) {
				t.Fatalf("seed %d: a perturbed engine queued %d events off the heap", seed, len(r.ref)-len(r.e.events))
			}
			r.drain()
		}
	})
}

// laneScript is one event of TestDelayLanesRunUntil's cascade: when it
// fires it schedules its kids, each After its delay or At its absolute time.
type laneScript struct {
	abs  bool
	when Duration // the delay, or the absolute time when abs
	kids []int
}

// TestDelayLanesRunUntil runs a scripted cascade of callbacks scheduled with
// After and At under a series of RunUntil deadlines, one of them in the
// past, with two more roots scheduled from outside before each run, and
// checks the firing order and the time after each run against a
// container/heap engine written out in the test. A run never moves the
// clock back: after the 2 ms run, the 1 ms one leaves Now at 2 ms.
func TestDelayLanesRunUntil(t *testing.T) {
	deadlines := []Time{2_000_000, 1_000_000, 9_000_000, 9_000_000, 25_000_000, -1}
	const roots = 2 // scheduled before each run
	nRoots := roots * len(deadlines)
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		script := make([]laneScript, 600)
		for i := range script {
			s := &script[i]
			switch rng.Intn(6) {
			case 0:
				s.abs, s.when = true, Duration(rng.Intn(30_000_000))
			case 1:
				s.when = wideDelay(rng.Intn(40))
			default:
				s.when = fig7Delays[rng.Intn(len(fig7Delays))]
			}
			if i >= nRoots {
				parent := rng.Intn(i)
				script[parent].kids = append(script[parent].kids, i)
			}
		}
		// due is when script event i falls due if scheduled at now.
		due := func(i int, now Time) Time {
			if s := script[i]; s.abs {
				return max(Time(s.when), now)
			}
			return now.Add(script[i].when)
		}

		// The engine under test.
		e := NewEngine(1)
		var got []int
		var fire func(i int) func()
		fire = func(i int) func() {
			return func() {
				got = append(got, i)
				for _, k := range script[i].kids {
					e.At(due(k, e.Now()), fire(k))
				}
			}
		}
		var gotNow []Time
		for run, d := range deadlines {
			for i := run * roots; i < (run+1)*roots; i++ {
				if script[i].abs {
					e.At(Time(script[i].when), fire(i))
				} else {
					e.After(script[i].when, fire(i))
				}
			}
			var err error
			if d < 0 {
				err = e.Run()
			} else {
				err = e.RunUntil(d)
			}
			if err != nil {
				t.Fatal(err)
			}
			gotNow = append(gotNow, e.Now())
		}

		// The reference: the same loop over container/heap.
		var ref refHeap
		var now Time
		var seq uint64
		var want []int
		push := func(i int) {
			seq++
			heap.Push(&ref, &event{t: due(i, now), seq: seq, token: uint64(i)})
		}
		var wantNow []Time
		for run, d := range deadlines {
			for i := run * roots; i < (run+1)*roots; i++ {
				push(i)
			}
			for len(ref) > 0 {
				if d >= 0 && ref[0].t > d {
					now = max(now, d)
					break
				}
				ev := heap.Pop(&ref).(*event)
				now = ev.t
				want = append(want, int(ev.token))
				for _, k := range script[ev.token].kids {
					push(k)
				}
			}
			wantNow = append(wantNow, now)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: fired %v, reference fires %v", seed, got, want)
		}
		if !reflect.DeepEqual(gotNow, wantNow) {
			t.Fatalf("seed %d: now after each run %v, reference %v", seed, gotNow, wantNow)
		}
		if gotNow[1] != gotNow[0] {
			t.Fatalf("seed %d: now %v after the 2 ms run, %v after the 1 ms one", seed, gotNow[0], gotNow[1])
		}
	}
}

// FuzzEngineEventOrder checks the engine's event queue against
// container/heap on an arbitrary op stream. Each byte is one op: 0xff enables
// perturbation (once); otherwise the low two bits pick pop, a fig7 delay, one
// of 40 delays (lanes collide) or an absolute time near now, from the upper
// bits.
func FuzzEngineEventOrder(f *testing.F) {
	f.Add([]byte{1, 5, 9, 0, 0, 0})
	f.Add([]byte{0x01, 0x05, 0x01, 0x05, 0x09, 0x0d, 0x00, 0x02, 0x06, 0x00})
	f.Add([]byte{0x01, 0x05, 0x09, 0x01, 0x05, 0x09, 0xff, 0x01, 0x05, 0x00, 0x00})
	f.Add([]byte{0x0a, 0x4a, 0x8a, 0xca, 0x03, 0x43, 0x00, 0x0a, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, ops []byte) {
		r := newEngineRef(t)
		for _, b := range ops {
			arg := int(b >> 2)
			switch {
			case b == 0xff:
				if r.e.perturb == nil {
					r.perturb(int64(len(ops)))
				}
			case b&3 == 0:
				if len(r.ref) > 0 {
					r.pop()
				}
			case b&3 == 1:
				r.after(fig7Delays[arg%len(fig7Delays)])
			case b&3 == 2:
				r.after(wideDelay(arg))
			default:
				r.at(r.e.now + Time(arg*400) - 4000)
			}
		}
		r.drain()
	})
}
