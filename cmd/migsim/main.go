// Command migsim runs one simulated MPI job under the migration framework
// and prints a phase-decomposed report.
//
// Examples:
//
//	migsim -app LU -class C -np 64 -ppn 8                 # the paper's setup
//	migsim -app BT -class W -np 16 -ppn 2 -restart memory # future-work mode
//	migsim -app LU -class W -np 16 -ppn 2 -transport socket
//	migsim -app SP -class C -np 64 -ppn 8 -strategy cr-pvfs
//	migsim -app LU -class S -np 8 -ppn 2 -trace           # watch the protocol
//	migsim -app LU -class W -np 16 -ppn 2 -fault tgt-crash -fault-phase 2
//	migsim -app LU -class W -np 16 -ppn 2 -fault src-crash -verify
//	migsim -app LU -class S -np 32 -partitions 4 -workers 4   # partitioned engine
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/core"
	"ibmig/internal/cr"
	"ibmig/internal/exp"
	"ibmig/internal/fault"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
)

func main() {
	app := flag.String("app", "LU", "application: LU, BT or SP")
	class := flag.String("class", "W", "NPB class: S, W, A, B or C")
	np := flag.Int("np", 16, "number of MPI processes")
	ppn := flag.Int("ppn", 2, "processes per node")
	strategy := flag.String("strategy", "migrate", "fault handling: migrate, cr-ext3 or cr-pvfs")
	restartMode := flag.String("restart", "file", "migration restart mode: file, memory or pipelined")
	transport := flag.String("transport", "rdma", "migration transport: rdma or socket")
	poolMB := flag.Int64("pool", 10, "buffer pool size (MB)")
	chunkKB := flag.Int64("chunk", 1024, "chunk size (KB)")
	triggerFrac := flag.Float64("trigger", 0.33, "trigger point as a fraction of estimated runtime")
	seed := flag.Int64("seed", 1, "simulation seed")
	faultKind := flag.String("fault", "", "inject a fault during the migration: "+fault.MigrationFaultNames())
	faultPhase := flag.Int("fault-phase", 2, "migration phase (1-4) the fault lands at")
	verify := flag.Bool("verify", false, "checksum images end to end (slower)")
	trace := flag.Bool("trace", false, "stream framework trace events")
	timeline := flag.Bool("timeline", false, "print the migration's event timeline (the paper's Fig. 2 sequence)")
	obsOn := flag.Bool("obs", false, "collect observability data (spans, metrics, device utilization) and print a summary")
	traceOut := flag.String("trace-out", "", "write a Chrome/Perfetto trace-event JSON file (implies -obs)")
	partitions := flag.Int("partitions", 1, "run the conservative partitioned engine with this many shards (LU only; >1 skips the migration scenario)")
	workers := flag.Int("workers", 1, "worker goroutines for the partitioned engine")
	iters := flag.Int("iters", 0, "partitioned engine: iteration override (0 = full class count)")
	flag.Parse()
	if *traceOut != "" {
		*obsOn = true
	}

	if *partitions != 1 || *workers > 1 {
		runPartitioned(*app, *class, *np, *seed, *partitions, *workers, *iters, *trace)
		return
	}

	w := npb.New(npb.Kernel(*app), npb.Class((*class)[0]), *np)
	if *np%*ppn != 0 {
		fmt.Fprintln(os.Stderr, "np must be a multiple of ppn")
		os.Exit(2)
	}
	opts := core.Options{
		BufferPoolBytes: *poolMB << 20,
		ChunkBytes:      *chunkKB << 10,
		Hash:            *verify,
	}
	switch *restartMode {
	case "memory":
		opts.RestartMode = core.RestartMemory
	case "pipelined":
		opts.RestartMode = core.RestartPipelined
	}
	if *transport == "socket" {
		opts.Transport = core.TransportSocket
	}
	if *faultKind != "" {
		// A dead node stalls a phase until the deadline; keep the wait short.
		opts.PhaseDeadline = 5 * time.Second
	}

	e := sim.NewEngine(*seed)
	var recorder *sim.Recorder
	isFrameworkEvent := func(kind string) bool {
		switch kind {
		case "core.jm", "core.nla", "ftb.publish", "health.predict", "blcr.checkpoint", "blcr.restart":
			return true
		}
		return false
	}
	switch {
	case *trace:
		e.SetTracer(&sim.Writer{W: os.Stderr, Filter: isFrameworkEvent})
	case *timeline:
		recorder = &sim.Recorder{}
		e.SetTracer(recorder)
	}
	spares := 1
	if *faultKind != "" {
		spares = 2 // recovery may burn a spare and retry onto the next
	}
	c := cluster.New(e, cluster.Config{
		ComputeNodes: *np / *ppn,
		SpareNodes:   spares,
		PVFSServers:  4,
	})
	res := npb.NewResult(w.Ranks)
	fw := core.Launch(c, w, *ppn, res, opts)
	var col *obs.Collector
	if *obsOn {
		col = obs.Enable(e)
	}

	src := c.Compute[len(c.Compute)/2].Name
	if *faultKind != "" {
		inj := fault.NewInjector(c)
		inj.Bind(fw)
		sp, err := fault.MigrationFault(*faultKind, src, c.Spares[0].Name)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		inj.AtPhase(0, *faultPhase, sp)
		fmt.Printf("armed fault %v at migration phase %d\n", sp, *faultPhase)
	}

	fmt.Printf("%s: %d ranks on %d nodes (%d/node), est. runtime %.1fs, image %s MB/rank\n",
		w.Name(), w.Ranks, *np / *ppn, *ppn, w.EstimatedRuntime().Seconds(), metrics.MB(w.PerRankImage))

	dpStart := metrics.CaptureDataPlane()
	var report *metrics.Report
	var appDur sim.Duration
	e.Spawn("migsim", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		start := p.Now()
		if *faultKind != "" {
			// The recovery image the CR-fallback path restores from if the
			// injected fault defeats the migration itself.
			if _, err := fw.Checkpoint(p, cr.PVFS); err != nil {
				fmt.Fprintln(os.Stderr, "pre-fault checkpoint:", err)
				os.Exit(1)
			}
			fmt.Printf("full-job checkpoint taken at t=%.1fs\n", p.Now().Seconds())
		}
		p.Sleep(sim.Duration(float64(w.EstimatedRuntime()) * *triggerFrac))
		switch *strategy {
		case "migrate":
			fmt.Printf("triggering migration of %s at t=%.1fs\n", src, p.Now().Seconds())
			fw.TriggerMigration(p, src).Wait(p)
			if len(fw.Reports) > 0 {
				report = fw.Reports[len(fw.Reports)-1]
			}
		case "cr-ext3":
			report = cr.NewRunner(c, fw.W, cr.Ext3, *verify).FullCycle(p)
		case "cr-pvfs":
			report = cr.NewRunner(c, fw.W, cr.PVFS, *verify).FullCycle(p)
		default:
			fmt.Fprintf(os.Stderr, "unknown strategy %q\n", *strategy)
			os.Exit(2)
		}
		fw.W.WaitDone(p)
		appDur = p.Now().Sub(start)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		e.Shutdown() // flush tracers; the collected observability data is still valid
		dumpObs(col, e.Now(), *traceOut)
		fmt.Fprintln(os.Stderr, "simulation failed:", err)
		os.Exit(1)
	}
	e.Shutdown()
	dumpObs(col, e.Now(), *traceOut)

	if report == nil {
		fmt.Println("no fault-tolerance action completed")
		os.Exit(1)
	}
	if recorder != nil {
		fmt.Println("\nMigration timeline (paper Fig. 2):")
		for _, rec := range recorder.Records {
			if isFrameworkEvent(rec.Kind) {
				fmt.Printf("  %11.3fms  %-16s %-22s %s\n", rec.T.Milliseconds(), rec.Kind, rec.Who, rec.Detail)
			}
		}
	}
	fmt.Println()
	fmt.Println(report)
	if jm := fw.JobManager(); *faultKind != "" || jm.MigrationsAborted > 0 {
		fmt.Printf("recovery: aborted=%d spare-retries=%d cr-fallbacks=%d restart-resends=%d job-lost=%v\n",
			jm.MigrationsAborted, jm.SpareRetries, jm.CRFallbacks, jm.RestartResends, jm.JobLost)
	}
	fmt.Println(metrics.CaptureDataPlane().Delta(dpStart))
	fmt.Printf("application ran %.2fs end to end (overhead vs estimate: %.1f%%)\n",
		appDur.Seconds(), (appDur.Seconds()/w.EstimatedRuntime().Seconds()-1)*100)
	if *verify {
		fmt.Println("image verification: enabled (restart would have failed on any corruption)")
	}
}

// runPartitioned executes the fault-free LU workload on the conservative
// partitioned engine and reports window/cross-traffic statistics. Tracing is
// only attached under -trace (fingerprints cost memory at scale); with it,
// the printed fingerprint is bit-identical at every -workers setting.
func runPartitioned(app, class string, np int, seed int64, parts, workers, iters int, trace bool) {
	if npb.Kernel(app) != npb.LU {
		fmt.Fprintln(os.Stderr, "-partitions supports only -app LU (the sharded wavefront workload)")
		os.Exit(2)
	}
	if err := exp.CheckPartitions(np, parts); err != nil {
		fmt.Fprintln(os.Stderr, "-partitions:", err)
		os.Exit(2)
	}
	sc := exp.Scale{Class: npb.Class(class[0]), Ranks: np, PPN: 1, Seed: seed}
	out := exp.RunPartitionedLU(sc, parts, workers, iters, trace)
	fmt.Printf("partitioned LU.%c: %d ranks over %d shards, %d workers, %d iterations\n",
		sc.Class, out.Ranks, out.Parts, out.Workers, out.Iterations)
	fmt.Printf("  %d events in %d windows, %d cross-partition messages\n",
		out.Events, out.Windows, out.CrossMessages)
	fmt.Printf("  virtual %.2fs, wall %.2fs\n", out.VirtualTime.Seconds(), out.Wall.Seconds())
	if trace {
		fmt.Printf("  trace fingerprint %#x (invariant across -workers)\n", out.Fingerprint)
	}
	for g, done := range out.Result.IterDone {
		if done != out.Iterations {
			fmt.Fprintf(os.Stderr, "rank %d finished %d/%d iterations\n", g, done, out.Iterations)
			os.Exit(1)
		}
	}
}

// dumpObs finishes the collector, prints its plain-text summary, and writes
// the Chrome trace-event file when requested. No-op without -obs.
func dumpObs(col *obs.Collector, now sim.Time, traceOut string) {
	if col == nil {
		return
	}
	col.Finish(now)
	fmt.Println("\nObservability summary:")
	if err := obs.WriteSummary(os.Stdout, col); err != nil {
		fmt.Fprintln(os.Stderr, "obs summary:", err)
	}
	if traceOut == "" {
		return
	}
	f, err := os.Create(traceOut)
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace-out:", err)
		os.Exit(1)
	}
	if err := obs.WriteChromeTrace(f, col); err == nil {
		err = f.Close()
	} else {
		f.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "trace-out:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote Perfetto trace to %s (load at ui.perfetto.dev)\n", traceOut)
}
