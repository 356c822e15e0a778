package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"ibmig/internal/check"
	"ibmig/internal/cluster"
	"ibmig/internal/core"
	"ibmig/internal/cr"
	"ibmig/internal/exp"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/sim"
	"ibmig/internal/strategy"
)

// input is everything one op receives. Inputs are drawn from the seed before
// any op is timed.
type input struct {
	Frac     float64        // migration trigger instant, share of the job's estimated runtime
	Src      int            // migration source, index into the compute nodes
	Seed     int64          // engine seed (part_lu1024)
	Scenario check.Scenario // dst_sweep
}

// size is a workload's problem size. Each workload has a paper-scale size,
// which the benchmark runs, and a quick size for the self-tests.
type size struct {
	Class        npb.Class
	Ranks, PPN   int
	PVFS         int     // PVFS servers; >0 also runs the two CR cycles of Fig. 7
	Lo, Hi       float64 // trigger window, share of estimated runtime
	Parts, Iters int     // partitioned engine
}

// opResult is what one op reports besides its host cost.
type opResult struct {
	SimNS      int64     `json:"sim_ns"` // simulated time advanced
	Events     uint64    `json:"events"`
	Windows    uint64    `json:"windows,omitempty"`
	Cross      uint64    `json:"cross,omitempty"`
	Print      uint64    `json:"print"` // fingerprint of the simulated outputs
	Err        string    `json:"err,omitempty"`
	Strategy   string    `json:"strategy,omitempty"`
	Faults     int       `json:"faults,omitempty"`
	BytesMoved int64     `json:"bytes_moved,omitempty"`
	Chunks     int64     `json:"chunks,omitempty"`
	Paper      []float64 `json:"paper,omitempty"` // Fig. 7 totals: migration, CR-ext3, CR-PVFS (sim s)
}

type workload struct {
	Name, Why string
	paper     size
	quick     size
	// minOps keeps the median within the percentile rule: 20 ops leave 10
	// beyond it. maxOps caps the inputs drawn for one run.
	minOps, maxOps int
	// sameAsRef marks a workload whose ops must all reproduce the reference
	// op exactly, because its inputs cannot change the simulated outcome.
	sameAsRef bool
	gen       func(rng *rand.Rand, sz size, n int) []input
	ref       func(sz size) input
	run       func(sz size, in input, tr *tracer) opResult
}

var workloads = []*workload{
	{
		Name: "fig7_lu64",
		Why:  "the paper's headline: LU.C.64 migration then full CR cycles to ext3 and PVFS; app simulation and CR writes dominate",
		// The trigger sits early in the run: the phase totals do not depend
		// on it, and app simulation before it is most of an op's cost.
		paper:  size{Class: npb.ClassC, Ranks: 64, PPN: 8, PVFS: 4, Lo: 0.05, Hi: 0.10},
		quick:  size{Class: npb.ClassW, Ranks: 16, PPN: 2, PVFS: 4, Lo: 0.05, Hi: 0.10},
		minOps: 20, maxOps: 400,
		gen: genMigration, ref: refMigration, run: runMigration,
	},
	{
		Name: "scale_lu256",
		Why:  "256 ranks on 32 nodes: lazy connection mesh, payload arena and 256-rank suspend/drain/rebuild; no CR writes",
		// Draining before Phase 1 and rebuilding in Phase 4 scale with the
		// rank count: at this width they are ~40% of an op, against ~2% at
		// 64 ranks.
		paper:  size{Class: npb.ClassC, Ranks: 256, PPN: 8, Lo: 0.01, Hi: 0.02},
		quick:  size{Class: npb.ClassW, Ranks: 32, PPN: 4, Lo: 0.05, Hi: 0.10},
		minOps: 20, maxOps: 400,
		gen: genMigration, ref: refMigration, run: runMigration,
	},
	{
		Name: "part_lu1024",
		Why:  "1024-rank LU on the partitioned engine (8 parts): window/barrier path, no core/blcr/vfs/ftb",
		// One iteration: launch and the first wavefront already drive ~18k
		// windows, and more iterations only repeat them.
		paper:  size{Class: npb.ClassC, Ranks: 1024, PPN: 8, Parts: 8, Iters: 1},
		quick:  size{Class: npb.ClassW, Ranks: 64, PPN: 8, Parts: 4, Iters: 2},
		minOps: 20, maxOps: 400, sameAsRef: true,
		gen: genPartitioned, ref: func(size) input { return input{Seed: 1} }, run: runPartitioned,
	},
	{
		Name:   "dst_sweep",
		Why:    "many tiny class S DST engines: faults, hash verify, obs collector and flight recorder on; strategies cycle proactive/reactive-cr/replicate/adaptive",
		minOps: 20, maxOps: 2000,
		gen: genScenarios, ref: refScenario, run: runScenario,
	},
}

func workloadByName(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// stratified returns n values in [lo, hi) in blocks of 20: each block holds
// one uniform draw from each twentieth of the window, in random order. Every
// seed then covers the window evenly, so the per-seed median op is stable
// while the instants differ.
func stratified(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, 0, n)
	for len(out) < n {
		k := n - len(out)
		if k > 20 {
			k = 20
		}
		for _, s := range rng.Perm(k) {
			out = append(out, lo+(hi-lo)*(float64(s)+rng.Float64())/float64(k))
		}
	}
	return out
}

func genMigration(rng *rand.Rand, sz size, n int) []input {
	fracs := stratified(rng, n, sz.Lo, sz.Hi)
	nodes := sz.Ranks / sz.PPN
	ins := make([]input, n)
	for i := range ins {
		ins[i] = input{Frac: fracs[i], Src: rng.Intn(nodes)}
	}
	return ins
}

func refMigration(sz size) input {
	return input{Frac: (sz.Lo + sz.Hi) / 2, Src: sz.Ranks / sz.PPN / 2}
}

func genPartitioned(rng *rand.Rand, _ size, n int) []input {
	ins := make([]input, n)
	for i := range ins {
		ins[i] = input{Seed: 1 + rng.Int63n(1<<31)}
	}
	return ins
}

// scenarioPool is the DST corpus dst_sweep draws from: the class S scenarios
// of check.Generate(1..500), the seeds the repository's protocheck sweep
// runs under every strategy.
const scenarioPool = 500

// hangingSeed is the one pool scenario that never finishes under any
// strategy: "seed=430 r=4 ppn=1 sp=3 trig=21 f=hca-fail:tgt@t366
// f=disk-fail:src@1". The job neither completes nor is declared lost, so the
// scenario's controller polls forever; an op that never returns cannot be
// timed. Seeds outside the pool hit the same liveness bug, for example
// "seed=1442018065 r=16 ppn=4 sp=3 trig=38 strat=reactive-cr
// f=hca-fail:src@t236 f=hca-fail:tgt@1".
const hangingSeed = 430

type shape struct {
	kernel npb.Kernel
	ranks  int
}

// scenarioShapes are the class S shapes dst_sweep covers, LU twice as often
// as BT or SP, as check.Generate draws them. Host cost spans three orders of
// magnitude across shapes (and a class W scenario can take a second), so
// every block of ops holds each shape under each strategy in the same
// proportions; that keeps the per-op medians comparable from seed to seed.
var scenarioShapes = []shape{
	{npb.LU, 4}, {npb.LU, 4}, {npb.LU, 8}, {npb.LU, 8}, {npb.LU, 16}, {npb.LU, 16},
	{npb.BT, 4}, {npb.BT, 9}, {npb.BT, 16}, {npb.SP, 4}, {npb.SP, 9}, {npb.SP, 16},
}

// genScenarios draws pool scenarios in shuffled blocks that pair every entry
// of scenarioShapes with every strategy once. Each shape's scenarios come in
// a seeded order and repeat only after all of them have run.
func genScenarios(rng *rand.Rand, _ size, n int) []input {
	pools := map[shape][]check.Scenario{}
	for s := int64(1); s <= scenarioPool; s++ {
		if sc := check.Generate(s); sc.Class == npb.ClassS && s != hangingSeed {
			k := shape{sc.Kernel, sc.Ranks}
			pools[k] = append(pools[k], sc)
		}
	}
	type cell struct {
		shape    shape
		strategy string
	}
	var cells []cell
	shuffled := map[shape]bool{}
	for _, sh := range scenarioShapes {
		if p := pools[sh]; !shuffled[sh] {
			rng.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
			shuffled[sh] = true
		}
		for _, name := range strategy.Names() {
			cells = append(cells, cell{sh, name})
		}
	}
	next := map[shape]int{}
	ins := make([]input, 0, n)
	for len(ins) < n {
		for _, j := range rng.Perm(len(cells)) {
			c := cells[j]
			p := pools[c.shape]
			sc := p[next[c.shape]%len(p)]
			next[c.shape]++
			sc.Strategy = c.strategy
			ins = append(ins, input{Scenario: sc})
		}
	}
	return ins[:n]
}

// refScenario is the DST baseline: a clean migration of one 8-rank LU.S job.
func refScenario(size) input {
	sc := check.Default()
	sc.Strategy = "proactive"
	return input{Scenario: sc}
}

// newPrint returns a writer for the printed form of an op's simulated
// outputs and a function returning its fingerprint.
func newPrint() (io.Writer, func() uint64) {
	h := fnv.New64a()
	return h, h.Sum64
}

func writeReport(w io.Writer, r *metrics.Report) {
	fmt.Fprintf(w, "%s|%d|", r.Label, r.BytesMoved)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "%s=%d|", p.Name, int64(p.Duration))
	}
	keys := make([]string, 0, len(r.Extra))
	for k := range r.Extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%d|", k, r.Extra[k])
	}
	fmt.Fprintln(w)
}

var phaseSpans = [...]string{1: "phase1", 2: "phase2", 3: "phase3", 4: "phase4"}

// runMigration launches LU, triggers one migration at the input's instant
// from the input's source node, and with PVFS servers present follows it
// with a full CR cycle to ext3 and one to PVFS — the three stacks of Fig. 7.
// The op fails unless exactly one attempt ran and completed with every
// aggregation-pool chunk returned.
func runMigration(sz size, in input, tr *tracer) (out opResult) {
	tr.seg("launch")
	e := sim.NewEngine(1)
	c := cluster.New(e, cluster.Config{ComputeNodes: sz.Ranks / sz.PPN, SpareNodes: 1, PVFSServers: sz.PVFS})
	w := npb.New(npb.LU, sz.Class, sz.Ranks)
	res := npb.NewResult(sz.Ranks)
	fw := core.Launch(c, w, sz.PPN, res, core.Options{})
	fw.OnPhase(func(_ *sim.Proc, _, phase int) { tr.seg(phaseSpans[phase]) })
	var crs []*metrics.Report
	src := c.Compute[in.Src].Name
	e.Spawn("bench.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		tr.seg("app")
		p.Sleep(sim.Duration(in.Frac * float64(w.EstimatedRuntime())))
		tr.seg("suspend")
		fw.TriggerMigration(p, src).Wait(p)
		if sz.PVFS > 0 {
			tr.seg("cr_ext3")
			crs = append(crs, cr.NewRunner(c, fw.W, cr.Ext3, false).FullCycle(p))
			tr.seg("cr_pvfs")
			crs = append(crs, cr.NewRunner(c, fw.W, cr.PVFS, false).FullCycle(p))
		}
		tr.seg("teardown")
		e.Stop()
	})
	err := e.Run()
	out.SimNS = int64(e.Now())
	e.Shutdown()
	out.Events = e.Events()
	if err != nil {
		out.Err = "engine: " + err.Error()
		return out
	}

	pw, sum := newPrint()
	for _, a := range fw.Attempts {
		fmt.Fprintf(pw, "attempt %d %s>%s phase=%d completed=%v aborted=%v pool=%d\n",
			a.Seq, a.Src, a.Dst, a.Phase, a.Completed, a.Aborted, a.PoolOutstanding)
	}
	switch {
	case len(fw.Attempts) != 1:
		out.Err = fmt.Sprintf("%d migration attempts, want 1", len(fw.Attempts))
	case fw.Attempts[0].Aborted || !fw.Attempts[0].Completed:
		out.Err = "migration did not complete"
	case fw.Attempts[0].PoolOutstanding != 0:
		out.Err = fmt.Sprintf("%d aggregation-pool chunks outstanding", fw.Attempts[0].PoolOutstanding)
	case len(fw.Reports) != 1:
		out.Err = fmt.Sprintf("%d migration reports, want 1", len(fw.Reports))
	case sz.PVFS > 0 && (len(crs) != 2 || crs[0] == nil || crs[1] == nil):
		out.Err = "CR cycles did not report"
	}
	if out.Err != "" {
		return out
	}
	mig := fw.Reports[0]
	out.BytesMoved = mig.BytesMoved
	out.Chunks = mig.Extra["chunks"]
	writeReport(pw, mig)
	out.Paper = append(out.Paper, mig.Total().Seconds())
	for _, r := range crs {
		writeReport(pw, r)
		out.Paper = append(out.Paper, r.Total().Seconds())
	}
	fmt.Fprintf(pw, "now=%d iters=%v\n", out.SimNS, res.IterDone)
	out.Print = sum()
	return out
}

// runPartitioned runs LU sharded over the partitioned engine. Its outcome
// does not depend on the engine seed, so every op must match the reference.
func runPartitioned(sz size, in input, tr *tracer) (out opResult) {
	tr.seg("launch")
	workers := min(2, runtime.NumCPU())
	o := exp.RunPartitionedLU(exp.Scale{Class: sz.Class, Ranks: sz.Ranks, PPN: sz.PPN, Seed: in.Seed}, sz.Parts, workers, sz.Iters, false)
	// RunPartitionedLU times only the engine run; what came before it is
	// building the shards, their fabrics and MPI worlds.
	tr.segAt("app", time.Now().Add(-o.Wall))
	out.SimNS = int64(o.VirtualTime)
	out.Events, out.Windows, out.Cross = o.Events, o.Windows, o.CrossMessages
	for r, it := range o.Result.IterDone {
		if it != o.Iterations {
			out.Err = fmt.Sprintf("rank %d finished %d of %d iterations", r, it, o.Iterations)
			return out
		}
	}
	pw, sum := newPrint()
	fmt.Fprintf(pw, "vt=%d sums=%v done=%v\n", out.SimNS, o.Result.RankSums, o.Result.FinishedAt)
	out.Print = sum()
	return out
}

// runScenario runs one DST scenario; any invariant violation fails the op.
func runScenario(_ size, in input, tr *tracer) (out opResult) {
	tr.seg("scenario")
	r := check.RunScenario(in.Scenario)
	out.SimNS, out.Events = r.SimNS, r.Events
	out.Strategy, out.Faults = in.Scenario.Strategy, r.Faults
	if r.Failed() {
		v := r.Violations[0]
		out.Err = fmt.Sprintf("%s: %s: %s", r.Spec, v.Invariant, v.Detail)
		return out
	}
	pw, sum := newPrint()
	fmt.Fprintf(pw, "%s|%d %d %d %d %d %d %d %d %d %v %v %d\n", r.Spec,
		r.Attempts, r.Completed, r.Aborted, r.Retries, r.Fallbacks, r.ReactiveRestarts,
		r.ReplicaRestores, r.SpareExhaustions, r.PolicyCkpts, r.JobLost, r.AppDone, r.SimNS)
	out.Print = sum()
	return out
}
