package obs

// Mirror is a goroutine-safe replica of a Collector, rebuilt purely from the
// event stream: cmd/obsserve subscribes to a running engine's collector,
// pumps the drained events through Apply, and serves HTTP snapshots from the
// Mirror — so request handlers never touch the engine-local Collector.
//
// Because it is fed by a bounded ring, the Mirror is best-effort under
// overload: dropped events mean missed counter deltas or dangling spans. The
// drop count is surfaced in both exports so a lossy view is never mistaken
// for an exact one.

import (
	"fmt"
	"io"
	"strings"
	"sync"

	"ibmig/internal/sim"
)

// Mirror accumulates applied events into a Collector of its own, the same
// aggregation core the engine side uses. All methods are goroutine-safe.
type Mirror struct {
	mu      sync.Mutex
	col     *Collector
	spanIDs map[SpanID]SpanID // wire span id -> local id; they differ once a span open is dropped
	lastT   sim.Time
	events  uint64
	dropped uint64
}

// NewMirror returns an empty mirror.
func NewMirror() *Mirror {
	return &Mirror{col: New(), spanIDs: make(map[SpanID]SpanID)}
}

// Apply folds one streamed event into the replica.
func (m *Mirror) Apply(ev Event) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.events++
	if ev.T > m.lastT {
		m.lastT = ev.T
	}
	c := m.col
	switch ev.Kind {
	case EvSpanOpen:
		m.spanIDs[ev.Span] = c.StartSpan(ev.T, ev.Name, ev.Actor, m.spanIDs[ev.Parent])
	case EvSpanClose:
		c.EndSpan(ev.T, m.spanIDs[ev.Span])
	case EvSpanAttr:
		c.SpanAttr(m.spanIDs[ev.Span], ev.Name, ev.Str)
	case EvCounter:
		c.Add(ev.Name, int64(ev.Value))
	case EvGauge:
		c.SetGauge(ev.Name, ev.Value)
	case EvUsage:
		c.Usage(ev.T, ev.Name, int64(ev.Value), ev.Capacity)
	case EvHist:
		bounds := ev.bounds
		if bounds == nil {
			bounds = LatencyBucketsUS
		}
		c.Hist(ev.Name, bounds).Observe(ev.Value)
	case EvHeartbeat:
		c.SetGauge("engine.events", ev.Value)
	}
}

// ApplyAll folds a drained batch.
func (m *Mirror) ApplyAll(evs []Event) {
	for _, ev := range evs {
		m.Apply(ev)
	}
}

// SetDropped records the stream's cumulative drop count (from
// Subscriber.Dropped) for export.
func (m *Mirror) SetDropped(n uint64) {
	m.mu.Lock()
	m.dropped = n
	m.mu.Unlock()
}

// Events returns how many events have been applied.
func (m *Mirror) Events() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events
}

// LastT returns the latest event timestamp seen.
func (m *Mirror) LastT() sim.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lastT
}

// promName sanitizes a dotted metric name into a Prometheus metric name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len("ibmig_") + len(name))
	b.WriteString("ibmig_")
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// PrometheusText writes the replica as a Prometheus text-format snapshot:
// counters, gauges, full histograms (cumulative buckets, sum, count), and
// per-device busy-fraction/peak-utilization series, plus stream meta-metrics.
func (m *Mirror) PrometheusText(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	bw := &jsonWriter{w: w}

	bw.str("# TYPE ibmig_sim_time_ns gauge\n")
	bw.str(fmt.Sprintf("ibmig_sim_time_ns %d\n", int64(m.lastT)))
	bw.str("# TYPE ibmig_stream_events_total counter\n")
	bw.str(fmt.Sprintf("ibmig_stream_events_total %d\n", m.events))
	bw.str("# TYPE ibmig_stream_dropped_total counter\n")
	bw.str(fmt.Sprintf("ibmig_stream_dropped_total %d\n", m.dropped))
	bw.str("# TYPE ibmig_spans_total counter\n")
	c := m.col
	bw.str(fmt.Sprintf("ibmig_spans_total %d\n", len(c.spans)))

	for _, name := range c.CounterNames() {
		pn := promName(name) + "_total"
		bw.str(fmt.Sprintf("# TYPE %s counter\n%s %d\n", pn, pn, c.counters[name]))
	}
	for _, name := range c.GaugeNames() {
		pn := promName(name)
		bw.str(fmt.Sprintf("# TYPE %s gauge\n%s %g\n", pn, pn, c.gauges[name]))
	}
	for _, name := range c.HistNames() {
		h := c.hists[name]
		pn := promName(name)
		bw.str(fmt.Sprintf("# TYPE %s histogram\n", pn))
		var cum int64
		for i, bound := range h.Bounds {
			cum += h.Counts[i]
			bw.str(fmt.Sprintf("%s_bucket{le=\"%g\"} %d\n", pn, bound, cum))
		}
		bw.str(fmt.Sprintf("%s_bucket{le=\"+Inf\"} %d\n", pn, h.N))
		bw.str(fmt.Sprintf("%s_sum %g\n", pn, h.Sum))
		bw.str(fmt.Sprintf("%s_count %d\n", pn, h.N))
	}
	if devices := c.TrackNames(); len(devices) > 0 {
		bw.str("# TYPE ibmig_device_busy_fraction gauge\n")
		for _, d := range devices {
			bw.str(fmt.Sprintf("ibmig_device_busy_fraction{device=%q} %g\n", d, c.tracks[d].BusyFraction()))
		}
		bw.str("# TYPE ibmig_device_peak_utilization gauge\n")
		for _, d := range devices {
			bw.str(fmt.Sprintf("ibmig_device_peak_utilization{device=%q} %g\n", d, c.tracks[d].PeakUtilization()))
		}
	}
	return bw.err
}

// ChromeTrace writes the run so far as Chrome trace-event JSON: the mirrored
// spans with still-open ones sealed at the latest stream time. Safe while
// events continue to arrive — it snapshots under the lock.
func (m *Mirror) ChromeTrace(w io.Writer) error {
	m.mu.Lock()
	snap := &Collector{spans: make([]Span, len(m.col.spans))}
	copy(snap.spans, m.col.spans)
	last := m.lastT
	m.mu.Unlock()
	for i := range snap.spans {
		if snap.spans[i].open {
			snap.spans[i].End = last
			snap.spans[i].open = false
		}
		// Attrs slices are shared with the mirror; they are append-only and
		// the exporter only reads, so no copy is needed.
	}
	return WriteChromeTrace(w, snap)
}
