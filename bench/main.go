// Command bench is the repository's benchmark: one workload per run, as a
// closed loop with one client, every op's simulated output checked.
//
//	bash bench/run.sh --workload fig7_lu64 --seed 1 --seconds 20 --trace 0
//
// The workload runs in child processes of this binary, so set-up, GC state
// and memory belong to the workload. --trace 0 prints the end-to-end metrics;
// --trace 1 repeats the run with spans, a CPU profile and layer probes and
// prints the per-layer metrics. The last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a --trace 0 run reports; BENCHMARK.json gives
// their bounds.
var endToEnd = []metricDef{
	{"wall_p50_s", "s"},
	{"sim_s_per_host_s", "s/s"},
	{"alloc_mb_per_op", "MB"},
	{"setup_s", "s"},
}

// measureChildren is how many child processes share a run's seconds, each
// timing an interleaved share of the inputs. Pooling their ops evens out
// what differs from one process to the next, and setup_s is the median of
// their set-up times.
const measureChildren = 3

// runBudget bounds a whole run, children included.
const runBudget = 170 * time.Second

// traceRoot holds the traced pass's outputs, relative to the working
// directory.
const traceRoot = ".bench_build/trace"

func traceDir(workload string) string { return filepath.Join(traceRoot, workload) }

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: fig7_lu64, scale_lu256, part_lu1024 or dst_sweep")
	seed := flag.Int64("seed", 1, "seed the op inputs are drawn from")
	seconds := flag.Float64("seconds", 20, "how long the op loop runs (it always runs at least 20 ops)")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	role := flag.String("child", "", "internal: run as a workload child process (measure or traced)")
	part := flag.Int("part", 0, "internal: which share of the inputs a child runs")
	parts := flag.Int("parts", 1, "internal: how many children share the inputs")
	flag.Parse()

	wl, err := workloadByName(*name)
	if err != nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		if err == nil {
			err = errors.New("--trace takes 0 or 1 and --seconds must be positive")
		}
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if *role != "" {
		if err := runChild(wl, *role, *seed, *seconds, *part, *parts); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
		return
	}

	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	var res *result
	if *trace == 1 {
		res, err = tracedRun(ctx, wl, *seed, *seconds)
	} else {
		res, err = plainRun(ctx, wl, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// setupTime is one child's set-up: from process start to the end of its
// warm-up op, less the calibrator's time, raw and scaled to the reference
// host.
type setupTime struct{ raw, scaled float64 }

// spawn runs one child process and returns its set-up time and its report.
func spawn(ctx context.Context, wl *workload, role string, seed int64, seconds float64, part, parts int) (setupTime, *childReport, error) {
	var setup setupTime
	exe, err := os.Executable()
	if err != nil {
		return setup, nil, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", role, "-workload", wl.Name,
		"-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-part", strconv.Itoa(part), "-parts", strconv.Itoa(parts))
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return setup, nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return setup, nil, err
	}
	r := bufio.NewReader(out)
	line, rerr := r.ReadString('\n')
	elapsed := time.Since(start).Nanoseconds()
	var calNS, passNS int64
	ready := false
	if rerr == nil {
		_, perr := fmt.Sscanf(line, "ready %d %d\n", &calNS, &passNS)
		ready = perr == nil && passNS > 0
	}
	rep := new(childReport)
	if ready {
		rerr = json.NewDecoder(r).Decode(rep)
	}
	werr := cmd.Wait()
	switch {
	case werr != nil:
		return setup, nil, fmt.Errorf("%s child: %w", role, werr)
	case rerr != nil:
		return setup, nil, fmt.Errorf("%s child output: %w", role, rerr)
	case !ready:
		return setup, nil, fmt.Errorf("%s child: unexpected output %q", role, line)
	}
	setup.raw = float64(elapsed-calNS) / 1e9
	setup.scaled = scale(elapsed-calNS, passNS) / 1e9
	return setup, rep, nil
}

// measure runs the untraced loop in measureChildren processes, one after
// another, and pools their ops in input order.
func measure(ctx context.Context, wl *workload, seed int64, seconds float64) ([]setupTime, *childReport, error) {
	var setups []setupTime
	pooled := &childReport{}
	for k := 0; k < measureChildren; k++ {
		st, rep, err := spawn(ctx, wl, "measure", seed, seconds/measureChildren, k, measureChildren)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, st)
		switch {
		case k == 0:
			pooled.RefPrint, pooled.RefErr = rep.RefPrint, rep.RefErr
		case pooled.RefErr != "":
		case rep.RefErr != "":
			pooled.RefErr = rep.RefErr
		case rep.RefPrint != pooled.RefPrint:
			pooled.RefErr = fmt.Sprintf("reference op fingerprint differs between processes: %#x, %#x", pooled.RefPrint, rep.RefPrint)
		}
		pooled.Ops = append(pooled.Ops, rep.Ops...)
	}
	sort.Slice(pooled.Ops, func(i, j int) bool { return pooled.Ops[i].Input < pooled.Ops[j].Input })
	return setups, pooled, nil
}

// summary is what both passes derive from a child's ops. Host times are
// scaled to the reference host (calib.go); raw ones are kept for printing.
type summary struct {
	ops, failed   int
	walls         []float64 // scaled, s
	wallP50       float64   // scaled, s
	rawP50        float64
	simPerHost    float64 // median per-op simulated s per scaled host s
	rawSimPerHost float64
	allocMBPerOp  float64 // median per op
	loopS         float64 // raw
	hostFactor    float64 // median calibration pass time / calRef
}

func summarize(rep *childReport) (summary, error) {
	s := summary{ops: len(rep.Ops)}
	var raw, factors, simRates, rawRates, allocs []float64
	for _, op := range rep.Ops {
		w := scale(op.WallNS, op.CalNS)
		s.walls = append(s.walls, w/1e9)
		raw = append(raw, float64(op.WallNS)/1e9)
		factors = append(factors, float64(op.CalNS)/float64(calRef))
		simRates = append(simRates, float64(op.SimNS)/w)
		rawRates = append(rawRates, float64(op.SimNS)/float64(op.WallNS))
		allocs = append(allocs, float64(op.AllocB)/(1<<20))
		s.loopS += float64(op.WallNS) / 1e9
		if op.Err != "" {
			s.failed++
		}
	}
	p50, err := percentile(s.walls, 0.5)
	if err != nil {
		return s, fmt.Errorf("wall_p50_s: %w", err)
	}
	s.wallP50 = p50
	s.rawP50, _ = percentile(raw, 0.5)
	s.simPerHost, _ = percentile(simRates, 0.5)
	s.rawSimPerHost, _ = percentile(rawRates, 0.5)
	s.allocMBPerOp, _ = percentile(allocs, 0.5)
	s.hostFactor = median(factors)
	return s, nil
}

// checkOutputs reports the failed ops and compares the simulated-output
// fingerprints with the pinned ones: the reference op's on every run, and
// the first minOps ops' at seed 1. It returns whether all outputs are right.
func checkOutputs(wl *workload, seed int64, rep *childReport) bool {
	ok := true
	shown := 0
	for _, op := range rep.Ops {
		if op.Err != "" {
			ok = false
			if shown++; shown <= 5 {
				fmt.Printf("  FAILED op on input %d: %s\n", op.Input, op.Err)
			}
		}
	}
	pin := pinned[wl.Name]
	if rep.RefErr != "" {
		fmt.Printf("  FAILED reference op: %s\n", rep.RefErr)
		ok = false
	}
	status := "ok"
	if rep.RefPrint != pin.Ref {
		status, ok = fmt.Sprintf("MISMATCH, pinned %#016x", pin.Ref), false
	}
	fmt.Printf("  fingerprint: reference op %#016x %s\n", rep.RefPrint, status)
	if seed == 1 && len(rep.Ops) >= wl.minOps && rep.Ops[wl.minOps-1].Input == wl.minOps-1 {
		got := seedPrint(rep.Ops[:wl.minOps])
		status = "ok"
		if got != pin.Seed1 {
			status, ok = fmt.Sprintf("MISMATCH, pinned %#016x", pin.Seed1), false
		}
		fmt.Printf("  fingerprint: first %d ops at seed 1 %#016x %s\n", wl.minOps, got, status)
	}
	return ok
}

func seedPrint(ops []opRecord) uint64 {
	h := fnv.New64a()
	for _, op := range ops {
		fmt.Fprintf(h, "%d\n", op.Print)
	}
	return h.Sum64()
}

// Fig. 7 totals as the paper reports them (s) and its speedups of migration
// over a full CR cycle.
var (
	paperFig7    = [3]float64{6.3, 12.9, 28.3}
	paperSpeedup = [2]float64{2.03, 4.49}
)

// paperErrPct is the mean |sim-paper|/paper over the three Fig. 7 totals,
// averaged over ops, in percent.
func paperErrPct(ops []opRecord) (totals [3]float64, errPct float64, ok bool) {
	n := 0
	for _, op := range ops {
		if len(op.Paper) != 3 {
			continue
		}
		n++
		for i, v := range op.Paper {
			totals[i] += v
		}
	}
	if n == 0 {
		return totals, 0, false
	}
	for i := range totals {
		totals[i] /= float64(n)
		errPct += 100 * math.Abs(totals[i]-paperFig7[i]) / paperFig7[i] / 3
	}
	return totals, errPct, true
}

func printFig7(ops []opRecord) {
	t, errPct, ok := paperErrPct(ops)
	if !ok {
		return
	}
	dev := func(i int) float64 { return 100 * (t[i] - paperFig7[i]) / paperFig7[i] }
	fmt.Printf("  Fig. 7 totals (simulated s): migration %.3f (paper %.1f, %+.1f%%), CR ext3 %.3f (paper %.1f, %+.1f%%), CR PVFS %.3f (paper %.1f, %+.1f%%)\n",
		t[0], paperFig7[0], dev(0), t[1], paperFig7[1], dev(1), t[2], paperFig7[2], dev(2))
	fmt.Printf("  Fig. 7 speedup of migration: %.2fx over CR ext3 (paper %.2fx), %.2fx over CR PVFS (paper %.2fx); paper_err_pct %.2f\n",
		t[1]/t[0], paperSpeedup[0], t[2]/t[0], paperSpeedup[1], errPct)
}

func plainRun(ctx context.Context, wl *workload, seed int64, seconds float64) (*result, error) {
	sts, rep, err := measure(ctx, wl, seed, seconds)
	if err != nil {
		return nil, err
	}
	var setups, rawSetups []float64
	for _, st := range sts {
		setups = append(setups, st.scaled)
		rawSetups = append(rawSetups, st.raw)
	}
	s, err := summarize(rep)
	if err != nil {
		return nil, err
	}
	setup := median(setups)
	fmt.Printf("%s seed=%d: %d ops in %.2f s, closed loop with one client; %d failed (error_rate %.4f)\n",
		wl.Name, seed, s.ops, s.loopS, s.failed, float64(s.failed)/float64(s.ops))
	fmt.Printf("  host times are scaled to a host whose calibration pass takes %v; this host's took %.3fx that (median)\n", calRef, s.hostFactor)
	fmt.Printf("  %-18s %12.6f s     median of %d ops, %d beyond it (raw %.6f s)\n",
		"wall_p50_s", s.wallP50, s.ops, beyond(s.ops, 0.5), s.rawP50)
	if p := tailPercentile(s.ops); p > 0.5 {
		v, _ := percentile(s.walls, p)
		fmt.Printf("  %-18s %12.6f s     highest percentile with >=%d ops beyond it\n", fmt.Sprintf("wall_p%g_s", p*100), v, minBeyond)
	}
	fmt.Printf("  %-18s %12.3f s/s   simulated s advanced per host s, median op (raw %.3f)\n", "sim_s_per_host_s", s.simPerHost, s.rawSimPerHost)
	fmt.Printf("  %-18s %12.3f MB    Go heap allocated per op, median op\n", "alloc_mb_per_op", s.allocMBPerOp)
	fmt.Printf("  %-18s %12.6f s     median of %d child processes %s, start to end of one warm-up op (raw %s)\n",
		"setup_s", setup, len(setups), fmtList(setups), fmtList(rawSetups))
	printFig7(rep.Ops)
	res := &result{Correct: checkOutputs(wl, seed, rep), Attempted: s.ops, Failed: s.failed, Metrics: map[string]metric{}}
	values := map[string]float64{
		"wall_p50_s":       s.wallP50,
		"sim_s_per_host_s": s.simPerHost,
		"alloc_mb_per_op":  s.allocMBPerOp,
		"setup_s":          setup,
	}
	for _, m := range endToEnd {
		res.Metrics[m.Name] = metric{values[m.Name], m.Unit}
	}
	return res, nil
}

func fmtList(xs []float64) string {
	s := ""
	for i, x := range xs {
		if i > 0 {
			s += ", "
		}
		s += strconv.FormatFloat(x, 'f', 3, 64)
	}
	return "(" + s + ")"
}

func tracedRun(ctx context.Context, wl *workload, seed int64, seconds float64) (*result, error) {
	_, plain, err := measure(ctx, wl, seed, seconds)
	if err != nil {
		return nil, err
	}
	_, traced, err := spawn(ctx, wl, "traced", seed, seconds, 0, 1)
	if err != nil {
		return nil, err
	}
	ps, err := summarize(plain)
	if err != nil {
		return nil, err
	}
	ts, err := summarize(traced)
	if err != nil {
		return nil, err
	}
	shares, err := cpuShares(filepath.Join(traceDir(wl.Name), "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	layer := traced.Layer
	for _, b := range cpuBuckets {
		layer[b.metric] = shares[b.bucket]
	}
	layer["trace.overhead_pct"] = 100 * (ts.wallP50/ps.wallP50 - 1)

	fmt.Printf("%s seed=%d traced: %d ops (untraced pass: %d ops); spans and cpu.pprof in %s\n",
		wl.Name, seed, ts.ops, ps.ops, traceDir(wl.Name))
	printLayers(traced, layer, shares)
	fmt.Println("  untraced pass:")
	correct := checkOutputs(wl, seed, plain)
	fmt.Println("  traced pass:")
	correct = checkOutputs(wl, seed, traced) && correct

	res := &result{Correct: correct, Attempted: ps.ops + ts.ops, Failed: ps.failed + ts.failed, Metrics: map[string]metric{}}
	for _, m := range perLayer {
		v, ok := layer[m.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.Name)
		}
		res.Metrics[m.Name] = metric{v, m.Unit}
	}
	return res, nil
}

func printLayers(rep *childReport, layer, shares map[string]float64) {
	fmt.Printf("  per-layer metrics:\n")
	for _, m := range perLayer {
		fmt.Printf("    %-32s %14.4f %s\n", m.Name, layer[m.Name], m.Unit)
	}
	fmt.Printf("  span self time per op (ms), measured around the benchmark's own calls:\n")
	var sum float64
	for _, n := range sortedKeys(rep.SpanMS) {
		fmt.Printf("    %-32s %14.3f ms\n", "span."+n+"_ms", rep.SpanMS[n])
		sum += rep.SpanMS[n]
	}
	var wall float64
	for _, op := range rep.Ops {
		wall += float64(op.WallNS) / 1e6
	}
	wall /= float64(len(rep.Ops))
	fmt.Printf("    self times sum to %.3f ms per op against an op wall time of %.3f ms (%.2f%%)\n", sum, wall, 100*sum/wall)
	if byStrat := strategyP50(rep.Ops); len(byStrat) > 0 {
		for _, n := range sortedKeys(byStrat) {
			fmt.Printf("    %-32s %14.3f ms\n", "strategy."+n+".p50_ms", byStrat[n])
		}
	}
	if w := layer["sim.windows_per_op"]; w > 0 {
		fmt.Printf("    %-32s %14.3f us\n", "sim.us_per_window", wall*1e3/w)
	}
	fmt.Printf("  host CPU by nearest repository package (%% of samples):\n")
	var total float64
	for _, b := range sortedKeys(shares) {
		fmt.Printf("    %-32s %14.2f %%\n", b, shares[b])
		total += shares[b]
	}
	fmt.Printf("    shares sum to %.2f%%\n", total)
}

// strategyP50 is the median op wall time per strategy, where each strategy
// has enough ops for the percentile rule.
func strategyP50(ops []opRecord) map[string]float64 {
	walls := map[string][]float64{}
	for _, op := range ops {
		if op.Strategy != "" {
			walls[op.Strategy] = append(walls[op.Strategy], float64(op.WallNS)/1e6)
		}
	}
	out := map[string]float64{}
	for s, w := range walls {
		if v, err := percentile(w, 0.5); err == nil {
			out[s] = v
		}
	}
	return out
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
