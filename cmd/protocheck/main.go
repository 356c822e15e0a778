// Command protocheck is the deterministic simulation-testing driver: it runs
// N seeded random migration scenarios (random workload × faults × schedule
// perturbation), evaluates every registered protocol invariant against each
// run, shrinks any failure to a minimal spec, and emits a summary plus an
// optional JSON artifact.
//
// Examples:
//
//	protocheck -n 500 -seed 1 -parallel 0          # the nightly CI sweep
//	protocheck -spec "seed=42 f=node-crash:tgt@2"  # replay one scenario
//	protocheck -n 100 -shrink=false                # sweep without shrinking
//	protocheck -fleet 200                          # fleet control-plane invariant sweep
//	protocheck -spec "flt seed=7 n=96 auto"        # replay one fleet scenario
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"ibmig/internal/check"
	"ibmig/internal/exp"
	"ibmig/internal/obs"
	"ibmig/internal/payload"
	"ibmig/internal/strategy"
)

func main() {
	var (
		n        = flag.Int("n", 100, "number of seeded scenarios to run")
		seed     = flag.Int64("seed", 1, "base seed; scenario i uses seed+i")
		spec     = flag.String("spec", "", "run this one scenario spec instead of a sweep")
		strat    = flag.String("strategy", "", "fault-tolerance strategy for the sweep (proactive, reactive-cr, replicate, adaptive; empty = proactive)")
		jsonOut  = flag.String("json", "", "write the JSON artifact to this file")
		shrink   = flag.Bool("shrink", true, "shrink failing scenarios to minimal repro specs")
		parallel = flag.Int("parallel", 0, "concurrent engines (0 = GOMAXPROCS)")
		verbose  = flag.Bool("v", false, "print per-scenario progress")
		invs     = flag.Bool("invariants", false, "list registered invariants and exit")
		parts    = flag.Int("partitions", 0, "run the partitioned-engine invariant sweep with this many partitions per scenario (0 with -workers unset = off; -1 = random 2-5)")
		workers  = flag.Int("workers", 0, "worker goroutines per partitioned scenario (implies the partitioned sweep; determinism is cross-checked against workers=1)")
		fleetN   = flag.Int("fleet", 0, "run the fleet control-plane invariant sweep with this many scenarios (0 = off)")
		poison   = flag.Bool("poison", false, "poison retired extent-arena nodes and validate on reuse (use-after-free detector; host-side only, results unchanged)")
		flight   = flag.Bool("flight-dump", false, "include the flight recorder's telemetry tail in every result, not just failures")
	)
	flag.Parse()

	if *poison {
		payload.SetPoisonFreed(true)
		// Strict telemetry posture rides along: misuse of the obs API (e.g.
		// histogram bucket-bound mismatches) panics instead of being ignored.
		obs.SetStrict(true)
	}
	if *flight {
		check.SetFlightDump(true)
	}

	if _, err := strategy.ByName(*strat); err != nil {
		fmt.Fprintln(os.Stderr, "protocheck:", err)
		os.Exit(2)
	}

	if *invs {
		for _, inv := range check.Registry() {
			fmt.Printf("%-20s %s\n", inv.Name, inv.Desc)
		}
		return
	}

	exp.SetParallelism(*parallel)

	if *parts != 0 || *workers != 0 {
		runPartitioned(*n, *seed, *parts, *workers, *jsonOut, *verbose)
		return
	}

	if *fleetN > 0 {
		runFleetSweep(*fleetN, *seed, *jsonOut, *shrink, *verbose)
		return
	}

	if *spec != "" {
		if check.IsFleetSpec(*spec) {
			runOneFleet(*spec, *jsonOut, *shrink)
		} else {
			runOne(*spec, *jsonOut, *shrink)
		}
		return
	}

	var progress func(int)
	if *verbose {
		progress = func(done int) {
			if done%50 == 0 || done == *n {
				fmt.Fprintf(os.Stderr, "protocheck: %d/%d\n", done, *n)
			}
		}
	}
	sum := check.Sweep(*n, *seed, *strat, progress)
	sum.Write(os.Stdout)
	for _, r := range sum.Failures {
		fmt.Printf("\nFAIL %s\n", r.Spec)
		for _, v := range r.Violations {
			fmt.Printf("  %s\n", v)
		}
		if *shrink {
			min := check.Shrink(r.Scenario, check.Fails)
			fmt.Printf("  repro: protocheck -spec %q\n", min)
		}
	}
	writeJSON(*jsonOut, sum)
	if len(sum.Failures) > 0 {
		os.Exit(1)
	}
}

// runPartitioned is the partitioned-engine invariant sweep: seeded random
// cross-partition traffic through sim.Partitioned, checking delivery
// latency, per-link FIFO, conservation, and worker-count determinism.
func runPartitioned(n int, seed int64, parts, workers int, jsonOut string, verbose bool) {
	if workers < 1 {
		workers = 4
	}
	if parts < 0 {
		parts = 0 // random 2-5 per scenario
	}
	var progress func(int)
	if verbose {
		progress = func(done int) {
			if done%50 == 0 || done == n {
				fmt.Fprintf(os.Stderr, "protocheck[partitioned]: %d/%d\n", done, n)
			}
		}
	}
	sum := check.PartSweep(n, seed, parts, workers, progress)
	sum.Write(os.Stdout)
	writeJSON(jsonOut, sum)
	if len(sum.Failures) > 0 {
		os.Exit(1)
	}
}

// runFleetSweep is the fleet control-plane invariant sweep: seeded random
// fleet scenarios through internal/fleet, checked against the fleet
// invariants, failures shrunk to minimal "flt" specs.
func runFleetSweep(n int, seed int64, jsonOut string, shrink, verbose bool) {
	var progress func(int)
	if verbose {
		progress = func(done int) {
			if done%50 == 0 || done == n {
				fmt.Fprintf(os.Stderr, "protocheck[fleet]: %d/%d\n", done, n)
			}
		}
	}
	sum := check.FleetSweep(n, seed, progress)
	sum.Write(os.Stdout)
	for _, r := range sum.Failures {
		fmt.Printf("\nFAIL %s\n", r.Spec)
		for _, v := range r.Violations {
			fmt.Printf("  %s\n", v)
		}
		if shrink {
			min := check.Shrink(r.Scenario, check.FailsFleet)
			fmt.Printf("  repro: protocheck -spec %q\n", min)
		}
	}
	writeJSON(jsonOut, sum)
	if len(sum.Failures) > 0 {
		os.Exit(1)
	}
}

func runOneFleet(spec, jsonOut string, shrink bool) {
	fs, err := check.ParseFleet(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "protocheck:", err)
		os.Exit(2)
	}
	res := check.RunFleetScenario(fs)
	fmt.Printf("fleet scenario: %s\n", res.Spec)
	if res.R != nil {
		fmt.Printf("  jobs=%d completed=%d rejected=%d interrupts=%d drains=%d goodput=%.1f%%\n",
			res.R.JobsTotal, res.R.JobsCompleted, res.R.JobsRejected,
			res.R.Interrupts, res.R.Drains, res.R.GoodputPct)
	}
	writeJSON(jsonOut, res)
	if !res.Failed() {
		fmt.Println("  all fleet invariants hold")
		return
	}
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION %s\n", v)
	}
	if shrink {
		min := check.Shrink(fs, check.FailsFleet)
		fmt.Printf("  repro: protocheck -spec %q\n", min)
	}
	os.Exit(1)
}

func runOne(spec, jsonOut string, shrink bool) {
	sc, err := check.Parse(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "protocheck:", err)
		os.Exit(2)
	}
	res := check.RunScenario(sc)
	fmt.Printf("scenario: %s\n", res.Spec)
	fmt.Printf("  attempts=%d completed=%d aborted=%d retries=%d fallbacks=%d job_lost=%v app_done=%v\n",
		res.Attempts, res.Completed, res.Aborted, res.Retries, res.Fallbacks, res.JobLost, res.AppDone)
	if len(res.Flight) > 0 {
		fmt.Println("  flight recorder tail:")
		for _, line := range res.Flight {
			fmt.Printf("    %s\n", line)
		}
	}
	writeJSON(jsonOut, res)
	if !res.Failed() {
		fmt.Println("  all invariants hold")
		return
	}
	for _, v := range res.Violations {
		fmt.Printf("  VIOLATION %s\n", v)
	}
	if shrink {
		min := check.Shrink(sc, check.Fails)
		fmt.Printf("  repro: protocheck -spec %q\n", min)
	}
	os.Exit(1)
}

func writeJSON(path string, v any) {
	if path == "" {
		return
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "protocheck: write artifact:", err)
		os.Exit(2)
	}
}
