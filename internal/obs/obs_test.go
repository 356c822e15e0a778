package obs

import (
	"testing"

	"ibmig/internal/sim"
)

func TestNilCollectorNoOps(t *testing.T) {
	var c *Collector
	if id := c.StartSpan(0, "x", "a", 0); id != 0 {
		t.Fatalf("nil StartSpan returned %d, want 0", id)
	}
	c.EndSpan(10, 1)
	c.SpanAttr(1, "k", "v")
	c.CloseOpen(10)
	c.Add("n", 1)
	c.SetGauge("g", 1)
	c.Usage(0, "dev", 1, 2)
	c.Finish(10)
	if c.Spans() != nil || c.Counter("n") != 0 || c.Gauge("g") != 0 {
		t.Fatal("nil collector leaked state")
	}
	if c.Hist("h", LatencyBucketsUS) != nil || c.Track("dev") != nil || c.Histogram("h") != nil {
		t.Fatal("nil collector returned non-nil registry entries")
	}
	if c.CounterNames() != nil || c.HistNames() != nil || c.TrackNames() != nil || c.GaugeNames() != nil {
		t.Fatal("nil collector returned names")
	}
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("nil histogram leaked state")
	}
}

func TestDisabledPathZeroAllocs(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	allocs := testing.AllocsPerRun(100, func() {
		c := Get(e)
		if c != nil {
			t.Fatal("collector attached without Enable")
		}
		id := c.StartSpan(e.Now(), "x", "a", 0)
		c.EndSpan(e.Now(), id)
		c.Add("n", 1)
		c.Hist("h", LatencyBucketsUS).Observe(1)
		c.Usage(e.Now(), "dev", 1, 2)
	})
	if allocs != 0 {
		t.Fatalf("disabled path allocates: %.1f allocs/op", allocs)
	}
}

func TestSpanLifecycle(t *testing.T) {
	c := New()
	root := c.StartSpan(100, "migration#1", "jm", 0)
	child := c.StartSpan(200, "phase1", "jm", root)
	c.SpanAttr(child, "k", "v")
	c.EndSpan(500, child)
	// Root left open: CloseOpen (via Finish) seals it.
	c.Finish(1000)

	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	if spans[root-1].End != 1000 {
		t.Fatalf("open root sealed at %d, want 1000", spans[root-1].End)
	}
	got := spans[child-1]
	if got.Parent != root || got.Start != 200 || got.End != 500 {
		t.Fatalf("child span %+v", got)
	}
	if len(got.Attrs) != 1 || got.Attrs[0] != (Attr{"k", "v"}) {
		t.Fatalf("child attrs %v", got.Attrs)
	}
	// Double EndSpan must not move the end time.
	c.EndSpan(700, child)
	if c.Spans()[child-1].End != 500 {
		t.Fatal("closed span re-ended")
	}
	// Out-of-range ids are ignored.
	c.EndSpan(0, 99)
	c.SpanAttr(99, "k", "v")
}

func TestHistogramQuantiles(t *testing.T) {
	c := New()
	h := c.Hist("lat", []float64{10, 20, 40})
	for _, v := range []float64{5, 12, 15, 18, 35} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count %d", h.Count())
	}
	if h.Min() != 5 || h.Max() != 35 {
		t.Fatalf("min/max %v/%v", h.Min(), h.Max())
	}
	if want := 17.0; h.Mean() != want {
		t.Fatalf("mean %v, want %v", h.Mean(), want)
	}
	if q := h.Quantile(0); q != 5 {
		t.Fatalf("q0 %v", q)
	}
	if q := h.Quantile(1); q != 35 {
		t.Fatalf("q1 %v", q)
	}
	// p50: rank 2.5 lands in bucket (10,20] holding 3 of the 5 samples.
	if q := h.Quantile(0.5); q < 10 || q > 20 {
		t.Fatalf("p50 %v outside its bucket", q)
	}
	// Overflow bucket targets report the observed max.
	h.Observe(1e6)
	if q := h.Quantile(0.99); q != 1e6 {
		t.Fatalf("overflow p99 %v, want 1e6", q)
	}
	// Same-name lookup must not reset.
	if c.Hist("lat", nil).Count() != 6 {
		t.Fatal("Hist lookup reset the histogram")
	}
}

func TestUsageTrack(t *testing.T) {
	c := New()
	// Busy 0..60 at 1, idle 60..80, busy 80..100 at 2 (out of capacity 2).
	c.Usage(0, "disk.n0", 1, 2)
	c.Usage(60, "disk.n0", 0, 2)
	c.Usage(80, "disk.n0", 2, 2)
	c.Finish(100)
	tr := c.Track("disk.n0")
	if tr == nil {
		t.Fatal("missing track")
	}
	if tr.Peak != 2 || tr.PeakUtilization() != 1.0 {
		t.Fatalf("peak %d util %v", tr.Peak, tr.PeakUtilization())
	}
	if got, want := tr.BusyFraction(), 0.8; got != want {
		t.Fatalf("busy fraction %v, want %v", got, want)
	}
	// Mean: (1*60 + 0*20 + 2*20) / 100 / cap 2 = 0.5.
	if got, want := tr.MeanUtilization(), 0.5; got != want {
		t.Fatalf("mean utilization %v, want %v", got, want)
	}
	if len(tr.Samples) != 3 {
		t.Fatalf("%d samples", len(tr.Samples))
	}
}

func TestEnableGet(t *testing.T) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	if Get(e) != nil {
		t.Fatal("Get before Enable")
	}
	c := Enable(e)
	if Get(e) != c {
		t.Fatal("Get did not return the enabled collector")
	}
	if Get(nil) != nil {
		t.Fatal("Get(nil)")
	}
}

// BenchmarkDisabledPath measures the cost instrumentation adds when no
// collector is attached — the nil check every call site pays. The acceptance
// bar for the observability layer is that this path stays within noise
// (≤2% of any hot loop), which a few ns/op with zero allocations satisfies.
func BenchmarkDisabledPath(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := Get(e)
		id := c.StartSpan(e.Now(), "x", "a", 0)
		c.EndSpan(e.Now(), id)
		c.Hist("h", LatencyBucketsUS).Observe(1)
		c.Usage(e.Now(), "dev", 1, 2)
	}
}

// BenchmarkEnabledSpan is the enabled-path cost per span for scale context.
func BenchmarkEnabledSpan(b *testing.B) {
	e := sim.NewEngine(1)
	defer e.Shutdown()
	c := Enable(e)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		id := c.StartSpan(sim.Time(i), "x", "a", 0)
		c.EndSpan(sim.Time(i+1), id)
	}
}
