package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"ibmig/internal/metrics"
	"ibmig/internal/payload"
)

// opRecord is one timed op as a child reports it.
type opRecord struct {
	opResult
	Input   int    `json:"input"` // index into the run's inputs
	WallNS  int64  `json:"wall_ns"`
	CalNS   int64  `json:"cal_ns"` // calibration pass time around the op
	AllocB  uint64 `json:"alloc_b"`
	Mallocs uint64 `json:"mallocs"`
	GCs     uint32 `json:"gcs"`
}

// childReport is what a measuring child writes to standard output after its
// "ready" line.
type childReport struct {
	RefPrint uint64             `json:"ref_print"`
	RefErr   string             `json:"ref_err,omitempty"`
	Ops      []opRecord         `json:"ops"`
	Layer    map[string]float64 `json:"layer,omitempty"`
	SpanMS   map[string]float64 `json:"span_ms,omitempty"` // self time per op by span name
}

// perLayer are the metrics a --trace 1 run reports. Shares of CPU samples
// and of op wall time are 0 on a workload that does not run the layer.
var perLayer = []metricDef{
	{"sim.events_per_op", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.windows_per_op", "count"},
	{"sim.cross_messages_per_op", "count"},
	{"sim.cpu_pct", "%"},
	{"sim.sched_cpu_pct", "%"},
	{"sim.dispatch_ns", "ns"},
	{"sim.pingpong_ns", "ns"},
	{"sim.batch256_ns", "ns"},
	{"sim.batch256_allocs", "count"},
	{"span.launch_pct", "%"},
	{"span.app_pct", "%"},
	{"span.suspend_pct", "%"},
	{"span.phase1_pct", "%"},
	{"span.phase2_pct", "%"},
	{"span.phase3_pct", "%"},
	{"span.phase4_pct", "%"},
	{"span.cr_ext3_pct", "%"},
	{"span.cr_pvfs_pct", "%"},
	{"span.scenario_pct", "%"},
	{"span.teardown_pct", "%"},
	{"span.op_self_pct", "%"},
	{"mpi.cpu_pct", "%"},
	{"npb.cpu_pct", "%"},
	{"mpi.ring_sendrecv16_ns", "ns"},
	{"mpi.suspend_resume16_us", "us"},
	{"core.bytes_moved_per_op", "B"},
	{"core.chunks_per_op", "count"},
	{"core.cpu_pct", "%"},
	{"ib.cpu_pct", "%"},
	{"ib.rdma_read_1MB_ns", "ns"},
	{"ib.post_send_4KB_ns", "ns"},
	{"blcr.cpu_pct", "%"},
	{"vfs.cpu_pct", "%"},
	{"cr.cpu_pct", "%"},
	{"blcr.ckpt_restart_32MB_ms", "ms"},
	{"vfs.local_ckpt_8MB_us", "us"},
	{"vfs.pvfs_write_8MB_us", "us"},
	{"payload.region_writes_per_op", "count"},
	{"payload.extent_splits_per_op", "count"},
	{"payload.extent_merges_per_op", "count"},
	{"payload.materialized_bytes_per_op", "B"},
	{"payload.arena_minted_per_op", "count"},
	{"payload.arena_recycled_per_op", "count"},
	{"payload.peak_live_extents", "count"},
	{"payload.cpu_pct", "%"},
	{"payload.checksum_cold_MBps", "MB/s"},
	{"payload.tree_splice_ns", "ns"},
	{"payload.tree_splice_allocs", "count"},
	{"obs.cpu_pct", "%"},
	{"obs.span_enabled_ns", "ns"},
	{"obs.span_disabled_ns", "ns"},
	{"ftb.cpu_pct", "%"},
	{"gige.cpu_pct", "%"},
	{"ftb.route64_us", "us"},
	{"check.cpu_pct", "%"},
	{"strategy.cpu_pct", "%"},
	{"fault.cpu_pct", "%"},
	{"check.faults_per_op", "count"},
	{"proc.cpu_pct", "%"},
	{"mem.cpu_pct", "%"},
	{"cluster.cpu_pct", "%"},
	{"exp.cpu_pct", "%"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.mallocs_per_op", "count"},
	{"runtime.gc_cycles_per_op", "count"},
	{"runtime.gc_cpu_pct", "%"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.unattributed_cpu_pct", "%"},
	{"bench.cpu_pct", "%"},
	{"fleet.month_arm_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// cpuBuckets maps CPU-attribution buckets to per-layer metrics.
var cpuBuckets = []struct{ bucket, metric string }{
	{"sim", "sim.cpu_pct"},
	{bucketSched, "sim.sched_cpu_pct"},
	{"mpi", "mpi.cpu_pct"},
	{"npb", "npb.cpu_pct"},
	{"core", "core.cpu_pct"},
	{"ib", "ib.cpu_pct"},
	{"blcr", "blcr.cpu_pct"},
	{"vfs", "vfs.cpu_pct"},
	{"cr", "cr.cpu_pct"},
	{"payload", "payload.cpu_pct"},
	{"obs", "obs.cpu_pct"},
	{"ftb", "ftb.cpu_pct"},
	{"gige", "gige.cpu_pct"},
	{"check", "check.cpu_pct"},
	{"strategy", "strategy.cpu_pct"},
	{"fault", "fault.cpu_pct"},
	{"proc", "proc.cpu_pct"},
	{"mem", "mem.cpu_pct"},
	{"cluster", "cluster.cpu_pct"},
	{"exp", "exp.cpu_pct"},
	{bucketGC, "runtime.gc_cpu_pct"},
	{bucketUnattributed, "runtime.unattributed_cpu_pct"},
	{bucketBench, "bench.cpu_pct"},
}

// spanNames are the segments a per-layer span share is reported for; "op"
// is the root's own time between segments.
var spanNames = []string{"launch", "app", "suspend", "phase1", "phase2", "phase3", "phase4", "cr_ext3", "cr_pvfs", "scenario", "teardown", "op"}

func spanMetric(name string) string {
	if name == "op" {
		return "span.op_self_pct"
	}
	return "span." + name + "_pct"
}

// safeRun runs one op, turning a panic into a failed op.
func safeRun(wl *workload, sz size, in input, tr *tracer) (res opResult) {
	defer func() {
		if r := recover(); r != nil {
			res.Err = fmt.Sprintf("panic: %v", r)
		}
	}()
	return wl.run(sz, in, tr)
}

func timeOp(wl *workload, sz size, in input, tr *tracer, i int) opRecord {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	tr.beginOp(i)
	start := time.Now()
	res := safeRun(wl, sz, in, tr)
	wall := time.Since(start)
	tr.endOp()
	runtime.ReadMemStats(&m1)
	return opRecord{
		opResult: res,
		WallNS:   wall.Nanoseconds(),
		AllocB:   m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:  m1.Mallocs - m0.Mallocs,
		GCs:      m1.NumGC - m0.NumGC,
	}
}

// runChild is one workload process: draw the inputs, run the untimed
// reference op, calibrate, report ready, then time ops for the given seconds.
// Child part of parts runs inputs part, part+parts, part+2*parts, ..., and at
// least its share of minOps, so the children of one run cover the inputs in
// order between them.
//
// The ready line carries the time spent starting the calibrator and in its
// pass, which is not set-up, and the pass time, which scales the set-up. The
// pass runs after the warm-up op, so the cache holds what it holds between
// ops.
func runChild(wl *workload, role string, seed int64, seconds float64, part, parts int) error {
	if role != "measure" && role != "traced" {
		return fmt.Errorf("unknown child role %q", role)
	}
	if parts < 1 || part < 0 || part >= parts {
		return fmt.Errorf("child part %d of %d", part, parts)
	}
	t0 := time.Now()
	cal, err := newCalibrator()
	if err != nil {
		return err
	}
	prep := time.Since(t0)
	sz := wl.paper
	inputs := wl.gen(rand.New(rand.NewSource(seed)), sz, wl.maxOps)
	ref := safeRun(wl, sz, wl.ref(sz), nil)
	first := cal.pass()
	fmt.Printf("ready %d %d\n", (prep + first).Nanoseconds(), first.Nanoseconds())

	rep := childReport{RefPrint: ref.Print, RefErr: ref.Err}
	var tr *tracer
	var prof *os.File
	var dp0 metrics.DataPlane
	var ar0 metrics.Arena
	dir := traceDir(wl.Name)
	if role == "traced" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		if prof, err = os.Create(filepath.Join(dir, "cpu.pprof")); err != nil {
			return err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
		payload.ResetPeakLiveExtents()
		dp0, ar0 = metrics.CaptureDataPlane(), metrics.CaptureArena()
		tr = newTracer()
	}

	// A calibration pass runs before the first op, after the last, and
	// between ops whenever calEvery of op time has passed; each op is scaled
	// by the mean of the passes on either side of it.
	type calPass struct {
		before int // index in rep.Ops of the first op after the pass
		ns     int64
	}
	passes := []calPass{{0, first.Nanoseconds()}}
	var sinceCal time.Duration
	minOps := (wl.minOps + parts - 1) / parts
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for i := part; i < len(inputs) && (len(rep.Ops) < minOps || time.Since(start) < limit); i += parts {
		if sinceCal >= calEvery {
			passes = append(passes, calPass{len(rep.Ops), cal.pass().Nanoseconds()})
			sinceCal = 0
		}
		rec := timeOp(wl, sz, inputs[i], tr, i)
		rec.Input = i
		sinceCal += time.Duration(rec.WallNS)
		if wl.sameAsRef && rec.Err == "" && (rec.Print != ref.Print || rec.SimNS != ref.SimNS ||
			rec.Events != ref.Events || rec.Windows != ref.Windows || rec.Cross != ref.Cross) {
			rec.Err = fmt.Sprintf("outcome differs from the reference op: events %d/%d windows %d/%d cross %d/%d vt %d/%d print %#x/%#x",
				rec.Events, ref.Events, rec.Windows, ref.Windows, rec.Cross, ref.Cross, rec.SimNS, ref.SimNS, rec.Print, ref.Print)
		}
		rep.Ops = append(rep.Ops, rec)
	}
	passes = append(passes, calPass{len(rep.Ops), cal.pass().Nanoseconds()})
	for j := 0; j+1 < len(passes); j++ {
		for i := passes[j].before; i < passes[j+1].before; i++ {
			rep.Ops[i].CalNS = (passes[j].ns + passes[j+1].ns) / 2
		}
	}

	if tr != nil {
		pprof.StopCPUProfile()
		if err := prof.Close(); err != nil {
			return err
		}
		rep.Layer = layerCounters(rep.Ops, metrics.CaptureDataPlane().Delta(dp0), metrics.CaptureArena().Delta(ar0))
		rep.SpanMS = map[string]float64{}
		self := selfTimes(tr.spans)
		var wallNS float64
		for _, op := range rep.Ops {
			wallNS += float64(op.WallNS)
		}
		for _, n := range spanNames {
			rep.Layer[spanMetric(n)] = 100 * float64(self[n]) / wallNS
		}
		for n, ns := range self {
			rep.SpanMS[n] = float64(ns) / 1e6 / float64(len(rep.Ops))
		}
		if err := tr.write(filepath.Join(dir, "spans.json")); err != nil {
			return err
		}
		for k, v := range runProbes() {
			rep.Layer[k] = v
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

// layerCounters turns the traced loop's op records and process-wide counter
// deltas into per-op layer metrics.
func layerCounters(ops []opRecord, dp metrics.DataPlane, ar metrics.Arena) map[string]float64 {
	n := float64(len(ops))
	var events, windows, cross, wallNS, bytes, chunks, faults, alloc, mallocs, gcs float64
	for _, op := range ops {
		events += float64(op.Events)
		windows += float64(op.Windows)
		cross += float64(op.Cross)
		wallNS += float64(op.WallNS)
		bytes += float64(op.BytesMoved)
		chunks += float64(op.Chunks)
		faults += float64(op.Faults)
		alloc += float64(op.AllocB)
		mallocs += float64(op.Mallocs)
		gcs += float64(op.GCs)
	}
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return map[string]float64{
		"sim.events_per_op":                 events / n,
		"sim.ns_per_event":                  wallNS / events,
		"sim.windows_per_op":                windows / n,
		"sim.cross_messages_per_op":         cross / n,
		"core.bytes_moved_per_op":           bytes / n,
		"core.chunks_per_op":                chunks / n,
		"check.faults_per_op":               faults / n,
		"payload.region_writes_per_op":      float64(dp.RegionWrites) / n,
		"payload.extent_splits_per_op":      float64(dp.ExtentSplits) / n,
		"payload.extent_merges_per_op":      float64(dp.ExtentMerges) / n,
		"payload.materialized_bytes_per_op": float64(dp.MaterializedBytes) / n,
		"payload.arena_minted_per_op":       float64(ar.Minted) / n,
		"payload.arena_recycled_per_op":     float64(ar.Recycled) / n,
		"payload.peak_live_extents":         float64(ar.PeakLiveExtents),
		"runtime.alloc_mb_per_op":           alloc / n / (1 << 20),
		"runtime.mallocs_per_op":            mallocs / n,
		"runtime.gc_cycles_per_op":          gcs / n,
		"runtime.peak_rss_mb":               float64(ru.Maxrss)/1024 - calWords*8/(1<<20), // less the calibration buffer
	}
}
