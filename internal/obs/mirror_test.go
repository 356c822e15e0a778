package obs

import (
	"bytes"
	"strings"
	"testing"
)

// feedMirror replays a collector's event stream into a fresh Mirror, the way
// cmd/obsserve's pump goroutine does.
func feedMirror(mutate func(c *Collector)) (*Collector, *Mirror) {
	c := New()
	sub := c.Subscribe(1 << 12)
	mutate(c)
	m := NewMirror()
	m.ApplyAll(sub.Drain(nil))
	m.SetDropped(sub.Dropped())
	return c, m
}

func TestMirrorReplicatesCollector(t *testing.T) {
	c, m := feedMirror(func(c *Collector) {
		root := c.StartSpan(100, "migration#1", "jm", 0)
		ph := c.StartSpan(200, "phase1", "jm", root)
		c.SpanAttr(ph, "src", "node03")
		c.Add("ib.rdma_reads", 2)
		c.Add("ib.rdma_reads", 3)
		c.SetGauge("pool.free", 7)
		c.Hist("core.lat_us", []float64{10, 20, 40}).Observe(15)
		c.Hist("core.lat_us", nil).Observe(35)
		c.Usage(300, "disk.n0", 1, 2)
		c.Usage(700, "disk.n0", 0, 2)
		c.EndSpan(800, ph)
		c.EndSpan(900, root)
	})
	if m.Events() != 12 {
		t.Fatalf("mirror applied %d events", m.Events())
	}
	if m.LastT() != 900 {
		t.Fatalf("mirror lastT %d", m.LastT())
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.spans) != len(c.Spans()) {
		t.Fatalf("mirror has %d spans, collector %d", len(m.spans), len(c.Spans()))
	}
	for i, s := range m.spans {
		o := c.Spans()[i]
		if s.Name != o.Name || s.Actor != o.Actor || s.Start != o.Start || s.End != o.End || s.Parent != o.Parent {
			t.Fatalf("span %d diverged: %+v vs %+v", i, s, o)
		}
	}
	if len(m.spans[1].Attrs) != 1 || m.spans[1].Attrs[0] != (Attr{"src", "node03"}) {
		t.Fatalf("mirrored attrs %v", m.spans[1].Attrs)
	}
	if m.counters["ib.rdma_reads"] != 5 {
		t.Fatalf("mirrored counter %d", m.counters["ib.rdma_reads"])
	}
	if m.gauges["pool.free"] != 7 {
		t.Fatalf("mirrored gauge %v", m.gauges["pool.free"])
	}
	h := m.hists["core.lat_us"]
	if h == nil || h.Count() != 2 || len(h.Bounds) != 3 {
		t.Fatalf("mirrored hist %+v", h)
	}
	u := m.usage["disk.n0"]
	if u == nil || u.capacity != 2 || u.peak != 1 {
		t.Fatalf("mirrored usage %+v", u)
	}
	if got := u.busyFraction(); got != 1.0 { // busy the whole 300..700 window
		t.Fatalf("busy fraction %v", got)
	}
}

func TestMirrorPrometheusText(t *testing.T) {
	_, m := feedMirror(func(c *Collector) {
		id := c.StartSpan(1000, "migrate", "jm", 0)
		c.Add("ib.rdma_reads", 4)
		c.SetGauge("pool.free", 3)
		h := c.Hist("core.lat_us", []float64{10, 20})
		h.Observe(5)
		h.Observe(15)
		h.Observe(99)
		c.Usage(1000, "disk.n0", 1, 2)
		c.Usage(2000, "disk.n0", 0, 2)
		c.EndSpan(2000, id)
	})
	var buf bytes.Buffer
	if err := m.PrometheusText(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"ibmig_sim_time_ns 2000",
		"ibmig_stream_events_total 9",
		"ibmig_stream_dropped_total 0",
		"ibmig_spans_total 1",
		"ibmig_ib_rdma_reads_total 4",
		"ibmig_pool_free 3",
		`ibmig_core_lat_us_bucket{le="10"} 1`,
		`ibmig_core_lat_us_bucket{le="20"} 2`,
		`ibmig_core_lat_us_bucket{le="+Inf"} 3`,
		"ibmig_core_lat_us_sum 119",
		"ibmig_core_lat_us_count 3",
		`ibmig_device_busy_fraction{device="disk.n0"} 1`,
		`ibmig_device_peak_utilization{device="disk.n0"} 0.5`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q:\n%s", want, text)
		}
	}
}

func TestMirrorChromeTraceValidates(t *testing.T) {
	_, m := feedMirror(func(c *Collector) {
		root := c.StartSpan(1000, "migration#1", "jm", 0)
		c.EndSpan(3000, c.StartSpan(2000, "phase1", "jm", root))
		c.EndSpan(4000, root)
		c.StartSpan(3500, "stuck", "node03/hca", 0) // left open: sealed at lastT
	})
	var buf bytes.Buffer
	if err := m.ChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("mirror chrome trace invalid: %v\n%s", err, buf.String())
	}
}

// sseGoodStream and sseBadStreams are TestValidateSSE's fixtures and
// FuzzValidateSSE's seed corpus.
var sseGoodStream = strings.Join([]string{
	": a comment line",
	"",
	`data: {"kind":"span_open","t_ns":100,"name":"m","actor":"jm","span":1}`,
	"",
	`data: {"kind":"counter","t_ns":100,"name":"ib.reads","value":1}`,
	"",
	`data: {"kind":"heartbeat","t_ns":200,"value":4096}`,
	"",
	`data: {"kind":"campaign","t_ns":50,"strategy":"proactive","progress_pct":10}`,
	"",
	`data: {"kind":"span_close","t_ns":300,"span":1}`,
	"",
	`data: {"kind":"done","t_ns":300}`,
	"",
}, "\n")

var sseBadStreams = map[string]string{
	"empty":                   "",
	"comments-only":           ": nothing\n\n",
	"not-sse":                 "hello world\n",
	"bad-json":                "data: {nope\n",
	"unknown-kind":            `data: {"kind":"mystery","t_ns":1}` + "\n",
	"negative-time":           `data: {"kind":"heartbeat","t_ns":-5}` + "\n",
	"open-needs-name":         `data: {"kind":"span_open","t_ns":1,"span":2}` + "\n",
	"open-needs-span":         `data: {"kind":"span_open","t_ns":1,"name":"m"}` + "\n",
	"close-needs-span":        `data: {"kind":"span_close","t_ns":1}` + "\n",
	"counter-needs-name":      `data: {"kind":"counter","t_ns":1,"value":2}` + "\n",
	"campaign-needs-strategy": `data: {"kind":"campaign","t_ns":1}` + "\n",
	"time-goes-backwards": `data: {"kind":"heartbeat","t_ns":100}` + "\n" +
		`data: {"kind":"heartbeat","t_ns":50}` + "\n",
}

func TestValidateSSE(t *testing.T) {
	if err := ValidateSSE([]byte(sseGoodStream)); err != nil {
		t.Fatalf("valid stream rejected: %v", err)
	}
	for name, bad := range sseBadStreams {
		if err := ValidateSSE([]byte(bad)); err == nil {
			t.Fatalf("%s: invalid stream accepted", name)
		}
	}
}

func TestWireRoundTrip(t *testing.T) {
	ev := Event{Kind: EvUsage, T: 123, Name: "disk.n0", Value: 1, Capacity: 2}
	w := ev.Wire()
	if w.Kind != "usage" || w.TNS != 123 || w.Name != "disk.n0" || w.Capacity != 2 {
		t.Fatalf("wire event %+v", w)
	}
	var buf bytes.Buffer
	if err := WriteSSE(&buf, w); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "data: {") || !strings.HasSuffix(buf.String(), "}\n\n") {
		t.Fatalf("sse framing %q", buf.String())
	}
	if err := ValidateSSE(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
}
