// Package obs is the simulator's observability layer: hierarchical spans,
// a metrics registry (counters, gauges, fixed-bucket histograms), and
// per-device utilization timelines, all stamped with virtual time.
//
// The layer is strictly passive: instrumentation reads the simulation clock
// and appends to host-side state, never sleeps, never touches queues or
// resources — so enabling it cannot perturb simulated results (the golden
// event trace stays bit-identical, see TestGoldenTraceObsEnabled in
// internal/exp).
//
// It is also zero-cost when disabled. Every entry point is a method on
// *Collector that no-ops on a nil receiver, and obs.Get returns nil for an
// engine without a collector, so the disabled path is a nil check and no
// allocation:
//
//	if c := obs.Get(e); c != nil { ... }   // or just call the nil-safe method
//
// A Collector, like a sim.Recorder, is engine-local state and is not
// goroutine-safe: under exp.Map each engine must own its own
// Collector. The two exceptions are Subscribe/Unsubscribe and draining the
// returned Subscriber (see sink.go), which are safe from any goroutine —
// that is how a live telemetry consumer rides along a running engine.
package obs

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ibmig/internal/sim"
)

// SpanID identifies a span within one Collector. The zero value means "no
// span" and is the parent of all roots.
type SpanID int32

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// Span is one timed interval in the simulation: a migration attempt, a
// protocol phase, an RDMA chunk transfer, a checkpoint write. Actor is a
// slash-separated placement path ("jm", "node03/hca", "spare01/disk"); the
// Chrome exporter maps the first segment to a process track and the full
// path to a thread track.
type Span struct {
	Name   string
	Actor  string
	Start  sim.Time
	End    sim.Time
	Parent SpanID
	Attrs  []Attr
	open   bool
}

// Collector accumulates spans, metrics and utilization tracks for one
// engine. All methods are safe on a nil *Collector (they do nothing), which
// is how the disabled path stays free.
type Collector struct {
	spans    []Span
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*Histogram
	tracks   map[string]*UsageTrack

	// Streaming (sink.go): the fan-out bus, the sticky "any consumer"
	// flag, the flight recorder, and the last intrinsically-timestamped
	// event time (stamps counter/gauge/hist events, which carry none).
	bus    atomic.Pointer[sinkBus]
	flags  atomic.Uint32
	flight *FlightRecorder
	lastT  sim.Time
}

// New returns an empty Collector.
func New() *Collector {
	return &Collector{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*Histogram),
		tracks:   make(map[string]*UsageTrack),
	}
}

// Enable attaches a new Collector to e and registers it for resource
// utilization callbacks. It returns the collector.
func Enable(e *sim.Engine) *Collector {
	c := New()
	e.SetObsData(c)
	e.SetResourceObserver(c)
	return c
}

// Get returns the Collector attached to e by Enable, or nil when
// observability is off. The nil result is usable: every Collector method
// no-ops on a nil receiver.
func Get(e *sim.Engine) *Collector {
	if e == nil {
		return nil
	}
	c, _ := e.ObsData().(*Collector)
	return c
}

// StartSpan opens a span at time t. parent may be 0 for a root span. The
// returned id is 0 (a no-op id) when the collector is nil.
func (c *Collector) StartSpan(t sim.Time, name, actor string, parent SpanID) SpanID {
	if c == nil {
		return 0
	}
	c.spans = append(c.spans, Span{
		Name: name, Actor: actor, Start: t, End: t, Parent: parent, open: true,
	})
	c.lastT = t
	id := SpanID(len(c.spans)) // 1-based
	if c.emitting() {
		c.emit(Event{Kind: EvSpanOpen, T: t, Name: name, Actor: actor, Span: id, Parent: parent})
	}
	return id
}

// EndSpan closes span id at time t. A zero id is ignored.
func (c *Collector) EndSpan(t sim.Time, id SpanID) {
	if c == nil || id <= 0 || int(id) > len(c.spans) {
		return
	}
	s := &c.spans[id-1]
	if !s.open {
		return
	}
	s.End = t
	s.open = false
	c.lastT = t
	if c.emitting() {
		c.emit(Event{Kind: EvSpanClose, T: t, Name: s.Name, Actor: s.Actor, Span: id})
	}
}

// SpanAttr annotates span id with key=value.
func (c *Collector) SpanAttr(id SpanID, key, value string) {
	if c == nil || id <= 0 || int(id) > len(c.spans) {
		return
	}
	s := &c.spans[id-1]
	s.Attrs = append(s.Attrs, Attr{key, value})
	if c.emitting() {
		c.emit(Event{Kind: EvSpanAttr, T: c.lastT, Name: key, Str: value, Span: id})
	}
}

// Spans returns the recorded spans. Span id i+1 is Spans()[i]. Open spans
// (never ended, e.g. because the run aborted) have End == Start; CloseOpen
// can seal them at a final timestamp first.
func (c *Collector) Spans() []Span {
	if c == nil {
		return nil
	}
	return c.spans
}

// ActiveAt returns "actor/name" labels for every span whose interval covers
// time t (still-open spans count as covering [Start, ∞)), in span insertion
// order. The invariant checker uses it to attach span context to a
// violation's timestamp, a handful of queries per run, so a linear scan is
// enough.
func (c *Collector) ActiveAt(t sim.Time) []string {
	if c == nil {
		return nil
	}
	var out []string
	for i := range c.spans {
		s := &c.spans[i]
		if s.Start <= t && (s.open || t <= s.End) {
			out = append(out, s.Actor+"/"+s.Name)
		}
	}
	return out
}

// LastTime returns the time of the last intrinsically-timestamped operation
// the collector saw — "now" to within one instrumented event. Engine-local
// like the rest of the collector; read it only once the run is over.
func (c *Collector) LastTime() sim.Time {
	if c == nil {
		return 0
	}
	return c.lastT
}

// CloseOpen ends every still-open span at time t. Call it after the run so
// aborted attempts still export well-formed intervals.
func (c *Collector) CloseOpen(t sim.Time) {
	if c == nil {
		return
	}
	emitting := c.emitting()
	for i := range c.spans {
		if c.spans[i].open {
			c.spans[i].End = t
			c.spans[i].open = false
			if emitting {
				c.emit(Event{Kind: EvSpanClose, T: t, Name: c.spans[i].Name, Actor: c.spans[i].Actor, Span: SpanID(i + 1)})
			}
		}
	}
	c.lastT = t
}

// Add increments counter name by delta.
func (c *Collector) Add(name string, delta int64) {
	if c == nil {
		return
	}
	c.counters[name] += delta
	if c.emitting() {
		c.emit(Event{Kind: EvCounter, T: c.lastT, Name: name, Value: float64(delta)})
	}
}

// Counter returns the current value of a counter.
func (c *Collector) Counter(name string) int64 {
	if c == nil {
		return 0
	}
	return c.counters[name]
}

// SetGauge records the latest value of gauge name.
func (c *Collector) SetGauge(name string, v float64) {
	if c == nil {
		return
	}
	c.gauges[name] = v
	if c.emitting() {
		c.emit(Event{Kind: EvGauge, T: c.lastT, Name: name, Value: v})
	}
}

// Hist returns the named histogram, creating it with the given bucket upper
// bounds on first use. Returns nil (itself a no-op histogram) on a nil
// collector. Bounds are only consulted at creation; callers of the same name
// must agree on them — a re-use with different non-nil bounds is ignored in
// production but panics under SetStrict (protocheck -poison), since silently
// bucketing into the wrong ladder corrupts every quantile downstream.
func (c *Collector) Hist(name string, bounds []float64) *Histogram {
	if c == nil {
		return nil
	}
	h := c.hists[name]
	if h == nil {
		h = newHistogram(bounds)
		h.col, h.name = c, name
		c.hists[name] = h
	} else if bounds != nil && strictMode.Load() && !equalBounds(h.Bounds, bounds) {
		panic(fmt.Sprintf("obs: Hist(%q) bucket-bound mismatch: created with %v, re-requested with %v",
			name, h.Bounds, bounds))
	}
	return h
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Usage records a utilization sample for the named device: used out of
// capacity at time t. sim.Resource feeds this automatically via the engine's
// ResourceObserver hook; buffer pools call it directly.
func (c *Collector) Usage(t sim.Time, name string, used, capacity int64) {
	if c == nil {
		return
	}
	tr := c.tracks[name]
	if tr == nil {
		tr = newUsageTrack(name, capacity)
		c.tracks[name] = tr
	}
	tr.sample(t, used)
	c.lastT = t
	if c.emitting() {
		c.emit(Event{Kind: EvUsage, T: t, Name: name, Value: float64(used), Capacity: capacity})
	}
}

// ResourceUsage implements sim.ResourceObserver.
func (c *Collector) ResourceUsage(t sim.Time, name string, used, capacity int64) {
	c.Usage(t, name, used, capacity)
}

// Finish closes all utilization integrals at time t (typically the end of
// the run). Call before exporting or computing busy fractions.
func (c *Collector) Finish(t sim.Time) {
	if c == nil {
		return
	}
	c.CloseOpen(t)
	for _, tr := range c.tracks {
		tr.finish(t)
	}
	c.RecordArena()
}

// CounterNames, GaugeNames, HistNames and TrackNames return sorted name
// lists — the deterministic iteration order every exporter uses.
func (c *Collector) CounterNames() []string {
	if c == nil {
		return nil
	}
	return sortedKeys(c.counters)
}

func (c *Collector) GaugeNames() []string {
	if c == nil {
		return nil
	}
	return sortedKeys(c.gauges)
}

func (c *Collector) HistNames() []string {
	if c == nil {
		return nil
	}
	return sortedKeys(c.hists)
}

func (c *Collector) TrackNames() []string {
	if c == nil {
		return nil
	}
	return sortedKeys(c.tracks)
}

// Gauge returns the latest value of a gauge.
func (c *Collector) Gauge(name string) float64 {
	if c == nil {
		return 0
	}
	return c.gauges[name]
}

// Track returns the named utilization track, or nil.
func (c *Collector) Track(name string) *UsageTrack {
	if c == nil {
		return nil
	}
	return c.tracks[name]
}

// Histogram returns the named histogram without creating it, or nil.
func (c *Collector) Histogram(name string) *Histogram {
	if c == nil {
		return nil
	}
	return c.hists[name]
}

func sortedKeys[V any](m map[string]V) []string {
	if len(m) == 0 {
		return nil
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
