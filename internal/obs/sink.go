package obs

// Streaming telemetry: every Collector mutation (span open/close, counter
// delta, gauge/usage sample, histogram observation) can be published
// incrementally as an Event, fanned out to any number of Subscribers through
// bounded per-subscriber ring buffers.
//
// The design constraints mirror the rest of the obs layer:
//
//   - nil-safe and zero-cost when off: a nil Collector publishes nothing, and
//     a Collector with no subscribers and no flight recorder pays one atomic
//     pointer load per mutation (TestDisabledPathZeroAllocs and the ~5 ns
//     disabled-path benchmark still hold — the disabled path never reaches
//     this file);
//   - strictly passive: publication happens on the engine goroutine as part
//     of the host-side collector mutation, never touches the engine, and so
//     cannot perturb simulated results (TestGoldenTraceStreamEnabled pins the
//     golden trace bit-identical with a live sink attached);
//   - bounded: a slow or absent consumer costs memory capped by its ring
//     size; overflow drops the oldest events and counts them, it never blocks
//     the engine.
//
// Subscribe/Unsubscribe are safe to call from any goroutine while the engine
// runs (the bus pointer is atomic and the subscriber list is mutex-guarded);
// draining a Subscriber is likewise goroutine-safe. Everything else on the
// Collector remains engine-local, as documented on the type.

import (
	"sync"
	"sync/atomic"

	"ibmig/internal/sim"
)

// EventKind discriminates telemetry events.
type EventKind uint8

// Event kinds, in the order they were introduced. The wire (JSON) names are
// in kindNames; ValidateSSE accepts exactly those plus the server-side
// "campaign" and "done" kinds.
const (
	EvSpanOpen EventKind = iota
	EvSpanClose
	EvSpanAttr
	EvCounter
	EvGauge
	EvUsage
	EvHist
	EvHeartbeat
)

var kindNames = [...]string{
	EvSpanOpen:  "span_open",
	EvSpanClose: "span_close",
	EvSpanAttr:  "span_attr",
	EvCounter:   "counter",
	EvGauge:     "gauge",
	EvUsage:     "usage",
	EvHist:      "hist",
	EvHeartbeat: "heartbeat",
}

func (k EventKind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one incremental telemetry record. Field use by kind:
//
//	EvSpanOpen   T, Name, Actor, Span, Parent
//	EvSpanClose  T, Name, Actor, Span
//	EvSpanAttr   T, Name (key), Str (value), Span
//	EvCounter    T, Name, Value (the delta, not the running total)
//	EvGauge      T, Name, Value
//	EvUsage      T, Name, Value (used), Capacity
//	EvHist       T, Name, Value (the observation)
//	EvHeartbeat  T, Value (events dispatched so far)
//
// T for kinds without an intrinsic timestamp (counter, gauge, hist, attr) is
// the collector's last span/usage time — "now" to within one instrumented
// operation.
type Event struct {
	Kind     EventKind
	T        sim.Time
	Name     string
	Actor    string
	Span     SpanID
	Parent   SpanID
	Value    float64
	Capacity int64
	Str      string

	// bounds carries the histogram's bucket ladder on EvHist so a replica
	// (Mirror) can create an identical histogram. Shared and read-only.
	bounds []float64
}

// Subscriber is one bounded consumer of a Collector's event stream: a
// circular buffer of the most recent events, a cumulative drop counter, and
// a capacity-1 notification channel. All methods are goroutine-safe.
type Subscriber struct {
	mu      sync.Mutex
	buf     []Event
	start   int
	n       int
	dropped uint64
	closed  bool
	notify  chan struct{}
}

// push appends ev, dropping the oldest buffered event when full (last-K
// semantics: a stalled consumer sees the most recent window, not the oldest).
func (s *Subscriber) push(ev Event) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.buf) {
		s.start = (s.start + 1) % len(s.buf)
		s.n--
		s.dropped++
	}
	s.buf[(s.start+s.n)%len(s.buf)] = ev
	s.n++
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Drain appends all buffered events to buf (pass buf[:0] to reuse backing
// storage) and empties the ring.
func (s *Subscriber) Drain(buf []Event) []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := 0; i < s.n; i++ {
		buf = append(buf, s.buf[(s.start+i)%len(s.buf)])
	}
	s.start, s.n = 0, 0
	return buf
}

// Dropped returns the cumulative count of events this subscriber lost to
// ring overflow.
func (s *Subscriber) Dropped() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Closed reports whether the subscriber was unsubscribed. A drain loop that
// sees an empty ring and Closed() true has received every event it ever will.
func (s *Subscriber) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Notify returns the wakeup channel: a token arrives (capacity 1, never
// blocking the publisher) after events are pushed and when the subscriber is
// closed. Check Drain and Closed after each wakeup.
func (s *Subscriber) Notify() <-chan struct{} { return s.notify }

// sinkBus is the fan-out hub: the subscriber list behind the Collector's
// atomic bus pointer.
type sinkBus struct {
	mu   sync.Mutex
	subs []*Subscriber
}

func (b *sinkBus) publish(ev Event) {
	b.mu.Lock()
	for _, s := range b.subs {
		s.push(ev)
	}
	b.mu.Unlock()
}

// Subscribe attaches a new subscriber with a ring of the given capacity
// (minimum 16) and returns it. Safe to call from any goroutine, including
// while the collector's engine is running. Returns nil on a nil collector.
func (c *Collector) Subscribe(ring int) *Subscriber {
	if c == nil {
		return nil
	}
	if ring < 16 {
		ring = 16
	}
	s := &Subscriber{buf: make([]Event, ring), notify: make(chan struct{}, 1)}
	for {
		b := c.bus.Load()
		if b != nil {
			b.mu.Lock()
			c.flags.Store(1)
			b.subs = append(b.subs, s)
			b.mu.Unlock()
			return s
		}
		if c.bus.CompareAndSwap(nil, &sinkBus{subs: []*Subscriber{s}}) {
			c.flags.Store(1)
			return s
		}
	}
}

// Unsubscribe detaches s: no further events are delivered, and s's Notify
// channel receives a final token so a parked drain loop wakes and observes
// Closed. Safe from any goroutine; no-op on nil receivers or foreign
// subscribers.
func (c *Collector) Unsubscribe(s *Subscriber) {
	if c == nil || s == nil {
		return
	}
	b := c.bus.Load()
	if b == nil {
		return
	}
	b.mu.Lock()
	for i, sub := range b.subs {
		if sub == s {
			b.subs = append(b.subs[:i], b.subs[i+1:]...)
			break
		}
	}
	b.mu.Unlock()
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// AttachFlight installs a flight recorder: every published event is also
// recorded into fr's bounded per-actor rings. Attach before the run starts
// (the recorder, unlike Subscribe, is engine-goroutine state). Pass nil to
// detach.
func (c *Collector) AttachFlight(fr *FlightRecorder) {
	if c == nil {
		return
	}
	c.flight = fr
	if fr != nil {
		c.flags.Store(1)
	}
}

// Flight returns the attached flight recorder, or nil.
func (c *Collector) Flight() *FlightRecorder {
	if c == nil {
		return nil
	}
	return c.flight
}

// emitting reports whether any event consumer is attached. One atomic load:
// this is the entire cost streaming adds to an enabled collector with no
// sink. The flag is set on Subscribe/AttachFlight and never cleared — a
// collector that once had a consumer takes the (still cheap) emit path with
// an empty subscriber list.
func (c *Collector) emitting() bool { return c.flags.Load() != 0 }

// emit publishes ev to the flight recorder and every subscriber. Called only
// from collector mutation paths after an emitting() check.
func (c *Collector) emit(ev Event) {
	if c.flight != nil {
		c.flight.record(ev)
	}
	if b := c.bus.Load(); b != nil {
		b.publish(ev)
	}
}

// Heartbeat publishes a liveness event (kind heartbeat) at time t with the
// engine's dispatched-event count. Server drivers call it from a sim flush
// hook so stream consumers see progress between instrumented operations.
func (c *Collector) Heartbeat(t sim.Time, events uint64) {
	if c == nil {
		return
	}
	c.lastT = t
	if c.emitting() {
		c.emit(Event{Kind: EvHeartbeat, T: t, Value: float64(events)})
	}
}

// strictMode gates the histogram bounds-mismatch panic (see Collector.Hist).
// Host-side debug posture, mirroring payload.SetPoisonFreed: protocheck's
// -poison flag turns it on.
var strictMode atomic.Bool

// SetStrict toggles strict (poison/debug) mode: telemetry misuse that is
// silently tolerated in production — currently Hist() re-use with different
// bucket bounds — panics instead. Results are unchanged either way.
func SetStrict(on bool) { strictMode.Store(on) }
