package exp

import (
	"bytes"
	"strings"
	"testing"

	"ibmig/internal/core"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
)

// TestGoldenTraceObsEnabled proves the observability layer is passive: the
// pinned golden scenario produces a bit-identical event trace with a
// collector attached, while the collector itself captures the migration.
func TestGoldenTraceObsEnabled(t *testing.T) {
	records, hash, totalNS, moved, col := goldenRunWith(true)
	if records != goldenRecords {
		t.Errorf("trace records = %d, want %d (obs perturbed the simulation)", records, goldenRecords)
	}
	if hash != goldenHash {
		t.Errorf("trace hash = %#x, want %#x (obs perturbed the simulation)", hash, goldenHash)
	}
	if totalNS != goldenTotalNS {
		t.Errorf("migration total = %dns, want %dns", totalNS, goldenTotalNS)
	}
	if moved != goldenMoved {
		t.Errorf("bytes moved = %d, want %d", moved, goldenMoved)
	}

	// The collector saw the run: a migration span with all four phases...
	names := map[string]int{}
	for _, s := range col.Spans() {
		names[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %q ends before it starts", s.Name)
		}
	}
	for _, phase := range []string{"phase1.stall", "phase2.migrate", "phase3.restart", "phase4.resume", "src.checkpoint", "tgt.pull", "tgt.restart"} {
		if names[phase] == 0 {
			t.Errorf("no %q span recorded", phase)
		}
	}
	if names["rdma.read"] == 0 {
		t.Error("no per-chunk rdma.read spans recorded")
	}
	// ...the RDMA metrics...
	if n := col.Counter("ib.rdma_reads"); n == 0 {
		t.Error("ib.rdma_reads counter is zero")
	}
	h := col.Histogram("ib.rdma_read_us")
	if h.Count() == 0 {
		t.Fatal("rdma latency histogram is empty")
	}
	if h.Quantile(0.5) <= 0 || h.Quantile(0.99) < h.Quantile(0.5) {
		t.Errorf("implausible latency quantiles p50=%v p99=%v", h.Quantile(0.5), h.Quantile(0.99))
	}
	// ...and device utilization from the resource hooks.
	var sawLink bool
	for _, name := range col.TrackNames() {
		if strings.HasPrefix(name, "ib.tx.") || strings.HasPrefix(name, "ib.rx.") {
			sawLink = true
		}
	}
	if !sawLink {
		t.Error("no IB link utilization tracks recorded")
	}

	// The collector exports a valid Chrome trace.
	var buf bytes.Buffer
	if err := obs.WriteChromeTrace(&buf, col); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Errorf("golden-run trace fails schema validation: %v", err)
	}
}

// TestObservedParallelMerge runs the observed golden scenario on four
// concurrent engines (one collector per engine, the RunParallel contract).
// Nothing merges the collectors: each one must match a serial run's on RDMA
// reads, spans and the RDMA read latency histogram.
func TestObservedParallelMerge(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(4)

	const n = 4
	cols := make([]*obs.Collector, n)
	tasks := make([]func(), n)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			_, _, _, _, col := goldenRunWith(true)
			cols[i] = col
		}
	}
	RunParallel(tasks...)

	single := goldenObservedCollector(t)
	if single.Counter("ib.rdma_reads") == 0 || single.Histogram("ib.rdma_read_us").Count() == 0 {
		t.Fatal("serial golden run recorded no RDMA reads")
	}
	for i, c := range cols {
		if got, want := c.Counter("ib.rdma_reads"), single.Counter("ib.rdma_reads"); got != want {
			t.Errorf("engine %d: rdma_reads = %d, want %d", i, got, want)
		}
		if got, want := len(c.Spans()), len(single.Spans()); got != want {
			t.Errorf("engine %d: spans = %d, want %d", i, got, want)
		}
		if got, want := c.Histogram("ib.rdma_read_us").Count(), single.Histogram("ib.rdma_read_us").Count(); got != want {
			t.Errorf("engine %d: rdma_read_us count = %d, want %d", i, got, want)
		}
	}
}

func goldenObservedCollector(t *testing.T) *obs.Collector {
	t.Helper()
	_, _, _, _, col := goldenRunWith(true)
	return col
}

// TestRecorderPerEngineUnderParallelism pins the documented contract that a
// sim.Recorder (like an obs.Collector) is engine-local: two engines recording
// concurrently must not interleave — meaningful chiefly under -race, where any
// shared mutable state in the trace path would be flagged.
func TestRecorderPerEngineUnderParallelism(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(2)

	run := func() *sim.Recorder {
		sc := Scale{Class: npb.ClassS, Ranks: 8, PPN: 2, Seed: 11}
		s := newSession(npb.LU, sc, sc.Ranks, sc.PPN, 1, 0, core.Options{})
		rec := &sim.Recorder{}
		s.e.SetTracer(rec)
		s.drive(func(p *sim.Proc) {
			p.Sleep(s.triggerAt())
			s.fw.TriggerMigration(p, s.midNode()).Wait(p)
		})
		return rec
	}
	recs := make([]*sim.Recorder, 2)
	RunParallel(
		func() { recs[0] = run() },
		func() { recs[1] = run() },
	)
	if len(recs[0].Records) == 0 {
		t.Fatal("recorder captured nothing")
	}
	if len(recs[0].Records) != len(recs[1].Records) {
		t.Fatalf("identical runs recorded %d vs %d records", len(recs[0].Records), len(recs[1].Records))
	}
	for i := range recs[0].Records {
		a, b := recs[0].Records[i], recs[1].Records[i]
		if a.T != b.T || a.Kind != b.Kind || a.Who != b.Who || a.Detail != b.Detail {
			t.Fatalf("record %d diverges: %+v vs %+v", i, a, b)
		}
	}
}
