// Command paperbench regenerates every table and figure of the paper's
// evaluation section:
//
//	fig4     process migration overhead, decomposed into four phases
//	fig5     application execution time with/without one migration
//	fig6     migration scalability vs processes per node (LU)
//	fig7     job migration vs Checkpoint/Restart (ext3, PVFS), with speedups
//	table1   amount of data movement (MB)
//	pool     ablation: buffer pool / chunk sizing (paper section IV-A, text)
//	restart  ablation: file-based vs memory-based restart (paper future work)
//	socket   ablation: RDMA pull vs socket staging (paper section III-B)
//	interval checkpoint-interval study: how proactive migration prolongs the
//	         interval between job-wide checkpoints (paper section VI)
//	sweep    cluster-scale sweep: LU migration at 64..2048 ranks (paper PPN),
//	         with per-point event counts and simulator throughput
//	crossover head-to-head strategy campaigns (proactive migration, reactive
//	         CR, replication, adaptive) under identical failure schedules,
//	         swept over failure density — the Cappello-style migration-vs-CR
//	         crossover, plus a correlated rack-failure point
//	fleet    fleet control-plane economics: 1,000 nodes, 200 jobs, 30 simulated
//	         days per policy arm (FIFO/backfill × fixed/autoscaled spare pool),
//	         with goodput, node-hours-lost, MTTI/MTTR and queue-wait rollups
//	partitioned  opt-in (not part of -exp all): conservative time-windowed
//	         partitioned execution of the top sweep point, serial baseline vs
//	         -partitions shards at each -workers count, with speedups
//
// Usage:
//
//	paperbench [-exp all|fig4|fig5|fig6|fig7|table1|pool|restart|socket|sweep]
//	           [-scale paper|quick] [-seed N] [-parallel N]
//	paperbench -exp partitioned [-partitions N] [-workers 1,2,4,8]
//
// At -scale paper the configuration matches the testbed: NPB class C, 64
// processes on 8 compute nodes plus one spare (Fig. 5 runs each application
// to completion and takes the longest).
//
// -parallel N fans the independent simulations inside each figure across up
// to N OS threads (0 = GOMAXPROCS). Every simulated number is bit-identical
// to -parallel 1; only the wall-clock lines change.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"ibmig/internal/core"
	"ibmig/internal/exp"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
)

func main() {
	which := flag.String("exp", "all", "experiment to run: all, fig4, fig5, fig6, fig7, table1, pool, restart, socket, aggregate, interference, interval, fleet, sweep, timeline, crossover, partitioned")
	scaleName := flag.String("scale", "paper", "experiment scale: paper (class C, 64 ranks) or quick (class W, 16 ranks)")
	seed := flag.Int64("seed", 1, "simulation seed")
	par := flag.Int("parallel", 1, "concurrent simulation engines per figure (0 = GOMAXPROCS)")
	traceOut := flag.String("trace-out", "", "timeline experiment: write the Chrome/Perfetto trace-event JSON here")
	partitions := flag.Int("partitions", 8, "partitioned experiment: shard count (must divide the LU grid rows)")
	workersFlag := flag.String("workers", "1,2,4,8", "partitioned experiment: comma-separated worker-goroutine counts")
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

	exp.SetParallelism(*par)

	sc := exp.PaperScale
	if *scaleName == "quick" {
		sc = exp.QuickScale
	} else if *scaleName != "paper" {
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scaleName)
		os.Exit(2)
	}
	sc.Seed = *seed

	// The partitioned experiment shards the top sweep point; reject bad
	// shard and worker lists before anything runs.
	partRanks, partIters := exp.DefaultSweepRanks[len(exp.DefaultSweepRanks)-1], 4
	if *scaleName == "quick" {
		partRanks, partIters = exp.QuickSweepRanks[len(exp.QuickSweepRanks)-1], 10
	}
	var workers []int
	if *which == "partitioned" {
		var err error
		if workers, err = parseWorkers(*workersFlag); err != nil {
			fmt.Fprintln(os.Stderr, "-workers:", err)
			os.Exit(2)
		}
		if err := exp.CheckPartitions(partRanks, *partitions); err != nil {
			fmt.Fprintln(os.Stderr, "-partitions:", err)
			os.Exit(2)
		}
	}

	run := func(name string, fn func()) {
		if *which != "all" && *which != name {
			return
		}
		start := time.Now()
		fn()
		fmt.Printf("[%s completed in %.1fs wall]\n\n", name, time.Since(start).Seconds())
	}

	fmt.Printf("Scale: class %c, %d ranks, %d per node, seed %d, parallelism %d\n\n",
		sc.Class, sc.Ranks, sc.PPN, sc.Seed, exp.Parallelism())

	dpStart := metrics.CaptureDataPlane()

	var fig7Groups []exp.Fig7Group
	run("fig4", func() {
		fmt.Println(exp.FormatPhaseRows("Fig. 4 — Process Migration Overhead", exp.Fig4(sc)))
	})
	run("fig5", func() {
		fmt.Println(exp.FormatFig5(exp.Fig5(sc)))
	})
	run("fig6", func() {
		fmt.Println(exp.FormatPhaseRows(
			fmt.Sprintf("Fig. 6 — Scalability of Job Migration (LU.%c, %d nodes)", sc.Class, sc.Ranks/sc.PPN),
			exp.Fig6(sc)))
	})
	run("fig7", func() {
		fig7Groups = exp.Fig7(sc)
		fmt.Println(exp.FormatFig7(fig7Groups))
	})
	run("table1", func() {
		if fig7Groups == nil {
			fig7Groups = exp.Fig7(sc)
		}
		fmt.Println(exp.FormatTable1(exp.Table1(fig7Groups)))
	})
	run("pool", func() {
		fmt.Println(exp.FormatPool(exp.AblationPool(sc)))
	})
	run("restart", func() {
		fmt.Println(exp.FormatPhaseRows("Ablation — file-based vs memory-based restart", exp.AblationRestartMode(sc)))
	})
	run("socket", func() {
		fmt.Println(exp.FormatPhaseRows("Ablation — RDMA pull vs socket staging (LU)", exp.AblationTransport(sc)))
	})
	run("aggregate", func() {
		fmt.Println(exp.FormatAggregation(exp.AblationAggregation(sc)))
	})
	run("interference", func() {
		fmt.Println(exp.FormatInterference(exp.AblationInterference(sc)))
	})
	run("interval", func() {
		mig, _, pvfs, _ := exp.RunComparison(npb.LU, sc, core.Options{})
		fmt.Println(exp.FormatInterval(exp.IntervalStudy(mig, pvfs)))
	})
	run("timeline", func() {
		// Not part of the paper's figures: an observed migration whose span
		// timeline, latency histograms and device utilization decompose where
		// the time of Fig. 4 actually goes. -trace-out saves the Perfetto file.
		col := exp.RunMigration(exp.MigrationSpec{Kernel: npb.LU, Scale: sc, Observe: true}).Collector
		fmt.Printf("Timeline — observed LU.%c migration (load -trace-out in ui.perfetto.dev)\n", sc.Class)
		if err := obs.WriteSummary(os.Stdout, col); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		if h := col.Histogram("ib.rdma_read_us"); h.Count() > 0 {
			fmt.Printf("RDMA chunk latency: p50=%.1fµs p99=%.1fµs over %d chunks\n",
				h.Quantile(0.50), h.Quantile(0.99), h.Count())
		}
		if hot, hotBusy := col.BusiestTrack("ib."); hot != "" {
			fmt.Printf("hottest IB link: %s (busy %.1f%% of its active window)\n", hot, hotBusy*100)
		}
		if *traceOut != "" {
			f, err := os.Create(*traceOut)
			if err == nil {
				err = obs.WriteChromeTrace(f, col)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "trace-out:", err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *traceOut)
		}
	})
	run("crossover", func() {
		spec := exp.CampaignSpec{Kernel: npb.LU, Scale: sc}
		fmt.Println("Crossover — strategy goodput vs failure density (LU, shared fault schedule)")
		fmt.Println(exp.FormatCrossover(exp.CrossoverSweep(spec, []int{1, 2, 3})))
		corr := spec
		corr.Failures = 1
		corr.Correlated = true
		fmt.Println(exp.FormatCrossover([]*exp.CampaignResult{exp.RunCampaign(corr, nil)}))
	})
	run("fleet", func() {
		base := exp.FleetEconomics(sc.Seed, *scaleName == "quick")
		fmt.Printf("Fleet economics — %d nodes, %d jobs, %.0f-day horizon, per-policy rollups\n",
			base.Nodes, base.Jobs, base.Horizon.Hours()/24)
		fmt.Println(exp.FormatFleet(exp.RunFleetCampaign(exp.FleetCampaignSpec{Base: base})))
	})
	run("sweep", func() {
		ranks := exp.DefaultSweepRanks
		if *scaleName == "quick" {
			ranks = exp.QuickSweepRanks
		}
		title := fmt.Sprintf("Scale sweep — LU migration, class %c, %d ranks/node", sc.Class, sc.PPN)
		fmt.Println(exp.FormatSweep(title, exp.ScaleSweep(sc, ranks)))
	})
	// partitioned is opt-in (excluded from -exp all): its serial baseline
	// deliberately re-builds the full-mesh world the sweep already measures,
	// which at paper scale is a multi-minute run in its own right.
	if *which == "partitioned" {
		run("partitioned", func() {
			psc := exp.Scale{Class: sc.Class, Ranks: partRanks, PPN: sc.PPN, Seed: sc.Seed}
			fmt.Printf("Partitioned engine — conservative time-windowed execution (LU.%c, %d ranks, %d shards)\n",
				sc.Class, partRanks, *partitions)
			fmt.Println(exp.FormatPartitionedScaling(exp.PartitionedScaling(psc, *partitions, workers, partIters)))
		})
	}

	fmt.Println(metrics.CaptureDataPlane().Delta(dpStart))
}

// parseWorkers parses the -workers comma list ("1,2,4,8") into worker counts.
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad worker count %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}
