// Command benchbaseline takes the large-scale host timings that nothing
// else in the repository measures, and writes them to a JSON file
// (BENCH_sim.json at the repo root, by convention):
//
//   - sweep: the whole rank ladder (LU, 64 to 2048 ranks at paper scale) at
//     each exp.Map worker count up to the host's CPU count
//   - memory: the extent-arena footprint of the top two sweep points
//   - partitioned: the conservative partitioned engine at the top sweep
//     point, serial full-mesh baseline vs sharded worlds at each worker
//     count up to the host's CPU count
//   - telemetry: the observed paper-scale migration with the live sink off
//     and on
//
// Every section carries its own measured_at, num_cpu, go_max_procs and
// scale stamp. Per-layer host cost lives elsewhere: bench/ and the Go
// benchmarks in internal/*. Simulated results (the paper's figures, the
// strategy campaigns, the fleet arms, the observed-migration digest) are
// pinned in internal/exp/testdata/results.json by TestPublishedResults.
//
// Usage:
//
//	benchbaseline [-o BENCH_sim.json] [-quick] [-seed N] [-only SECTION]
//
// -quick substitutes the reduced scale (class W / 16 ranks, short sweep
// ladder) for CI smoke runs. -only re-measures one entry of the sections
// table into an existing file and re-stamps only that section.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"ibmig/internal/exp"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/payload"
)

// Stamp records when, where and at which scale a section was measured.
// Sections are re-measured one at a time (-only), so each carries its own.
type Stamp struct {
	MeasuredAt string `json:"measured_at"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_max_procs"`
	Scale      string `json:"scale"`
}

func stampNow(c config) Stamp {
	return Stamp{
		MeasuredAt: time.Now().UTC().Format(time.RFC3339),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Scale:      c.scale,
	}
}

// Sweep is one parallelism setting of the scaling study.
type Sweep struct {
	Parallelism int     `json:"parallelism"`
	WallS       float64 `json:"wall_s"`
	SpeedupX    float64 `json:"speedup_x"`
}

// Baseline is the whole report.
type Baseline struct {
	GeneratedBy string `json:"generated_by"`

	// SweepScaling times the whole rank ladder at each exp.Map
	// worker count up to the host's CPU count.
	SweepScaling struct {
		Stamp
		Points []Sweep `json:"points"`
	} `json:"sweep_scaling"`

	// PartitionedScaling records the conservative partitioned engine at the
	// top sweep point: the first point is the serial parts=1 full-mesh
	// baseline, the rest shard the same workload across `parts` partitions at
	// each worker count up to the host's CPU count. Most of the speedup comes
	// from the O((ranks/parts)^2) per-shard connection mesh, not from the
	// workers.
	PartitionedScaling struct {
		Stamp
		Kernel     string      `json:"kernel"`
		Ranks      int         `json:"ranks"`
		Iterations int         `json:"iterations"`
		Parts      int         `json:"parts"`
		Points     []PartPoint `json:"points"`
	} `json:"partitioned_scaling"`

	// MemoryFootprint records the extent-arena footprint study: the large
	// sweep points re-run standalone with peak tracking rebaselined, so the
	// high-water mark of live extent descriptors and the cumulative Go
	// allocation are attributable to the point. The arena counters tell the
	// reclamation story (how many node allocations were recycled vs minted,
	// and how many nodes epoch closes returned).
	MemoryFootprint struct {
		Stamp
		Kernel string           `json:"kernel"`
		Points []FootprintPoint `json:"points"`
	} `json:"memory_footprint"`

	// Telemetry records the streaming-telemetry overhead: the same observed
	// paper-scale migration run with the live sink off and on (a subscriber
	// ring drained concurrently, the cmd/obsserve shape). The simulated
	// results are bit-identical either way (TestGoldenTraceStreamEnabled);
	// this section prices the host-side cost of watching.
	Telemetry struct {
		Stamp
		Kernel string `json:"kernel"`
		// Engine events per wall second with no sink vs a live sink attached,
		// and the relative slowdown.
		SinkOffEventsPerSec float64 `json:"sink_off_events_per_sec"`
		SinkOnEventsPerSec  float64 `json:"sink_on_events_per_sec"`
		OverheadPct         float64 `json:"overhead_pct"`
		// What the sink actually carried: telemetry events delivered to the
		// subscriber and events lost to ring overflow (0 with a keeping-up
		// consumer).
		SinkEvents  uint64 `json:"sink_events"`
		SinkDropped uint64 `json:"sink_dropped"`
	} `json:"telemetry"`
}

// FootprintPoint is one rank count of the memory-footprint study.
type FootprintPoint struct {
	Ranks            int     `json:"ranks"`
	WallS            float64 `json:"wall_s"`
	Events           uint64  `json:"events"`
	Resumes          uint64  `json:"resumes"` // coroutine resumes among the events
	PeakLiveExtents  int64   `json:"peak_live_extents"`
	FinalLiveExtents int64   `json:"final_live_extents"`
	AllocMB          float64 `json:"alloc_mb"`
	ArenaChunks      int64   `json:"arena_chunks"`
	ArenaRecycled    uint64  `json:"arena_recycled"`
	ArenaMinted      uint64  `json:"arena_minted"`
	EpochFrees       uint64  `json:"epoch_frees"`
	EpochsClosed     uint64  `json:"epochs_closed"`
	Compactions      uint64  `json:"compactions"`
	CompactedExts    uint64  `json:"compacted_extents"`
}

// workerCounts is the 1, 2, 4, 8 worker ladder cut at the host's CPU count:
// a point with more workers than CPUs measures scheduling overhead, not
// scaling.
func workerCounts() []int {
	var ws []int
	for w := 1; w <= 8 && w <= runtime.NumCPU(); w *= 2 {
		ws = append(ws, w)
	}
	return ws
}

// measureSweepScaling fills the sweep_scaling section: the whole rank ladder
// at each exp.Map worker count.
func measureSweepScaling(b *Baseline, c config) {
	b.SweepScaling.Stamp = stampNow(c)
	b.SweepScaling.Points = nil
	var serialWall float64
	for _, par := range workerCounts() {
		fmt.Fprintf(os.Stderr, "sweep at parallelism %d...\n", par)
		exp.SetParallelism(par)
		payload.ResetChecksumCache()
		start := time.Now()
		exp.ScaleSweep(c.sc, c.sweepRanks)
		w := time.Since(start).Seconds()
		if par == 1 {
			serialWall = w
		}
		sp := Sweep{Parallelism: par, WallS: w}
		if w > 0 {
			sp.SpeedupX = serialWall / w
		}
		b.SweepScaling.Points = append(b.SweepScaling.Points, sp)
	}
	exp.SetParallelism(1)
}

// measureMemory fills the memory_footprint section: the top two sweep points
// run standalone, with the GC settled and the peak-live-extents high-water
// mark rebaselined before each, so peaks and allocation deltas belong to the
// point alone.
func measureMemory(b *Baseline, c config) {
	sc := c.sc
	pts := c.sweepRanks
	if len(pts) > 2 {
		pts = pts[len(pts)-2:]
	}
	b.MemoryFootprint.Stamp = stampNow(c)
	b.MemoryFootprint.Kernel = "LU"
	b.MemoryFootprint.Points = nil
	for _, ranks := range pts {
		fmt.Fprintf(os.Stderr, "memory footprint (%d ranks)...\n", ranks)
		payload.ResetChecksumCache()
		runtime.GC()
		var ms0 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		payload.ResetPeakLiveExtents()
		arBefore := metrics.CaptureArena()
		start := time.Now()
		out := exp.RunMigration(exp.MigrationSpec{Kernel: npb.LU, Scale: exp.Scale{Class: sc.Class, Ranks: ranks, PPN: sc.PPN, Seed: sc.Seed}})
		wall := time.Since(start).Seconds()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		ar := metrics.CaptureArena().Delta(arBefore)
		b.MemoryFootprint.Points = append(b.MemoryFootprint.Points, FootprintPoint{
			Ranks:            ranks,
			WallS:            wall,
			Events:           out.Events,
			Resumes:          out.Resumes,
			PeakLiveExtents:  ar.PeakLiveExtents,
			FinalLiveExtents: metrics.CaptureDataPlane().LiveExtents,
			AllocMB:          float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20),
			ArenaChunks:      ar.Chunks,
			ArenaRecycled:    ar.Recycled,
			ArenaMinted:      ar.Minted,
			EpochFrees:       ar.EpochFrees,
			EpochsClosed:     ar.EpochsClosed,
			Compactions:      ar.Compactions,
			CompactedExts:    ar.CompactedAway,
		})
	}
}

// PartPoint is one point of the partitioned-engine scaling study.
type PartPoint struct {
	Parts         int     `json:"parts"`
	Workers       int     `json:"workers"`
	WallS         float64 `json:"wall_s"`
	Events        uint64  `json:"events"`
	Windows       uint64  `json:"windows"`
	CrossMessages uint64  `json:"cross_messages"`
	SpeedupX      float64 `json:"speedup_x"`
}

// measurePartitioned fills the partitioned_scaling section: the top sweep
// point on the conservative partitioned engine, serial baseline first. The
// iteration count is trimmed so setup and steady state both show in wall
// time; it is recorded in the section so points stay comparable across runs.
func measurePartitioned(b *Baseline, c config) {
	sc := c.sc
	top := c.sweepRanks[len(c.sweepRanks)-1]
	fmt.Fprintf(os.Stderr, "partitioned engine scaling (%d ranks)...\n", top)
	iters := 4
	if top <= 256 {
		iters = 10
	}
	psc := exp.Scale{Class: sc.Class, Ranks: top, PPN: sc.PPN, Seed: sc.Seed}
	b.PartitionedScaling.Stamp = stampNow(c)
	pts := exp.PartitionedScaling(psc, 8, workerCounts(), iters)
	b.PartitionedScaling.Kernel = "LU"
	b.PartitionedScaling.Ranks = top
	b.PartitionedScaling.Iterations = pts[0].Iterations
	b.PartitionedScaling.Parts = 8
	b.PartitionedScaling.Points = nil
	base := pts[0].Wall.Seconds()
	for _, p := range pts {
		pt := PartPoint{
			Parts: p.Parts, Workers: p.Workers, WallS: p.Wall.Seconds(),
			Events: p.Events, Windows: p.Windows, CrossMessages: p.CrossMessages,
		}
		if w := p.Wall.Seconds(); w > 0 {
			pt.SpeedupX = base / w
		}
		b.PartitionedScaling.Points = append(b.PartitionedScaling.Points, pt)
	}
}

// measureTelemetry fills the telemetry section: the observed migration with
// the sink off, then again with a live subscriber ring drained concurrently,
// priced as engine events per wall second.
func measureTelemetry(b *Baseline, c config) {
	fmt.Fprintln(os.Stderr, "streaming telemetry overhead (telemetry section)...")
	b.Telemetry.Stamp = stampNow(c)
	b.Telemetry.Kernel = "LU"
	payload.ResetChecksumCache()
	start := time.Now()
	offOut := exp.RunMigration(exp.MigrationSpec{Kernel: npb.LU, Scale: c.sc, Observe: true})
	offWall := time.Since(start).Seconds()
	payload.ResetChecksumCache()
	start = time.Now()
	onOut := exp.RunMigration(exp.MigrationSpec{Kernel: npb.LU, Scale: c.sc, StreamRing: 1 << 16})
	onWall := time.Since(start).Seconds()
	if offWall > 0 {
		b.Telemetry.SinkOffEventsPerSec = float64(offOut.Events) / offWall
		b.Telemetry.OverheadPct = (onWall/offWall - 1) * 100
	}
	if onWall > 0 {
		b.Telemetry.SinkOnEventsPerSec = float64(onOut.Events) / onWall
	}
	b.Telemetry.SinkEvents = onOut.Stream.Events
	b.Telemetry.SinkDropped = onOut.Stream.Dropped
}

// config is what every section measures against: the experiment scale and
// its name, and the sweep's rank ladder.
type config struct {
	sc         exp.Scale
	scale      string
	sweepRanks []int
}

func newConfig(quick bool, seed int64) config {
	c := config{sc: exp.PaperScale, scale: "paper", sweepRanks: exp.DefaultSweepRanks}
	if quick {
		c = config{sc: exp.QuickScale, scale: "quick", sweepRanks: exp.QuickSweepRanks}
	}
	c.sc.Seed = seed
	return c
}

// section is one re-measurable part of the baseline. A full run measures
// every section in table order; -only re-measures one section into an
// existing file. Each measure stamps its own section.
type section struct {
	name    string
	measure func(b *Baseline, c config)
	summary func(b *Baseline) string
}

// memory comes first: the extent arena's chunk and live-extent levels are
// process-wide, so every run before it would show up in its peaks.
var sections = []section{
	{"memory", measureMemory, func(b *Baseline) string {
		top := b.MemoryFootprint.Points[len(b.MemoryFootprint.Points)-1]
		return fmt.Sprintf("%d ranks: peak %d live extents, %.0f MB allocated, %d recycled / %d minted",
			top.Ranks, top.PeakLiveExtents, top.AllocMB, top.ArenaRecycled, top.ArenaMinted)
	}},
	{"sweep", measureSweepScaling, func(b *Baseline) string {
		pts := b.SweepScaling.Points
		last := pts[len(pts)-1]
		return fmt.Sprintf("%d points, last: parallelism %d, %.1fs, %.2fx",
			len(pts), last.Parallelism, last.WallS, last.SpeedupX)
	}},
	{"partitioned", measurePartitioned, func(b *Baseline) string {
		ps := b.PartitionedScaling
		last := ps.Points[len(ps.Points)-1]
		return fmt.Sprintf("%d ranks, serial %.1fs vs %d shards x %d workers %.1fs, %.2fx",
			ps.Ranks, ps.Points[0].WallS, last.Parts, last.Workers, last.WallS, last.SpeedupX)
	}},
	{"telemetry", measureTelemetry, func(b *Baseline) string {
		return fmt.Sprintf("sink off %.2f Mev/s, on %.2f Mev/s, overhead %.1f%%, %d events streamed, %d dropped",
			b.Telemetry.SinkOffEventsPerSec/1e6, b.Telemetry.SinkOnEventsPerSec/1e6,
			b.Telemetry.OverheadPct, b.Telemetry.SinkEvents, b.Telemetry.SinkDropped)
	}},
}

func sectionByName(name string) (section, bool) {
	for _, sec := range sections {
		if sec.name == name {
			return sec, true
		}
	}
	return section{}, false
}

func sectionNames() string {
	names := make([]string, len(sections))
	for i, sec := range sections {
		names[i] = sec.name
	}
	return strings.Join(names, ", ")
}

// refresh re-measures one section into the baseline file at path and leaves
// every other section, stamp included, as it was.
func refresh(path string, sec section, c config) (*Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sec.measure(&b, c)
	return &b, writeBaseline(path, &b)
}

func main() {
	out := flag.String("o", "BENCH_sim.json", "output file")
	quick := flag.Bool("quick", false, "reduced scale for CI smoke runs")
	only := flag.String("only", "", "re-measure just one section into an existing file (supported: "+sectionNames()+")")
	seed := flag.Int64("seed", 1, "simulation seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	defer func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	cfg := newConfig(*quick, *seed)

	// Incremental mode: a full regeneration takes minutes, so -only re-measures
	// one section into the existing file and leaves the rest untouched.
	if *only != "" {
		sec, ok := sectionByName(*only)
		if !ok {
			fmt.Fprintf(os.Stderr, "unsupported -only section %q (supported: %s)\n", *only, sectionNames())
			os.Exit(2)
		}
		b, err := refresh(*out, sec, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("updated %s section of %s (%s)\n", sec.name, *out, sec.summary(b))
		return
	}

	b := Baseline{GeneratedBy: "cmd/benchbaseline"}
	for _, sec := range sections {
		sec.measure(&b, cfg)
		fmt.Printf("%s: %s\n", sec.name, sec.summary(&b))
	}
	if err := writeBaseline(*out, &b); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s\n", *out)
}

func writeBaseline(path string, b *Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
