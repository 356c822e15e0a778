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
	"io"
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
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	if err := flagConflict(given); err != nil {
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
		// The partitioned-engine invariant sweep: seeded random
		// cross-partition traffic through sim.Partitioned, checking delivery
		// latency, per-link FIFO, conservation, and worker-count determinism.
		w := *workers
		if w < 1 {
			w = 4
		}
		sum := check.PartSweep(*n, *seed, max(*parts, 0), w, progress("protocheck[partitioned]", *n, *verbose))
		sum.Write(os.Stdout)
		finish(*jsonOut, sum, len(sum.Failures) > 0)
		return
	}

	if *spec != "" {
		var k kind = check.Migration("")
		if check.IsFleetSpec(*spec) {
			k = check.Fleet
		}
		res, failed, err := k.Replay(os.Stdout, *spec, *shrink)
		if err != nil {
			fmt.Fprintln(os.Stderr, "protocheck:", err)
			os.Exit(2)
		}
		finish(*jsonOut, res, failed)
		return
	}
	var k kind = check.Migration(*strat)
	count := *n
	if *fleetN > 0 {
		k, count = check.Fleet, *fleetN
	}
	sum, failed := k.Sweep(os.Stdout, count, *seed, *shrink, progress(k.Label(), count, *verbose))
	finish(*jsonOut, sum, failed)
}

// ignores lists, for each flag that selects a run, the flags that run would
// ignore: a replayed spec names its own kind and strategy, and the fleet
// and partitioned sweeps run no migration strategy and no spec.
var ignores = []struct{ mode, ignored string }{
	{"spec", "strategy"},
	{"fleet", "strategy"},
	{"fleet", "spec"},
	{"partitions", "strategy"},
	{"partitions", "spec"},
	{"workers", "strategy"},
	{"workers", "spec"},
}

// flagConflict rejects a command line that gives a flag its run would
// silently ignore. given holds the names of the flags on the command line.
func flagConflict(given map[string]bool) error {
	for _, c := range ignores {
		if given[c.mode] && given[c.ignored] {
			return fmt.Errorf("-%s cannot be combined with -%s: the -%s run ignores it", c.ignored, c.mode, c.mode)
		}
	}
	return nil
}

// kind is a check spec kind: check.Migration or check.Fleet.
type kind interface {
	Label() string
	Sweep(w io.Writer, n int, seed int64, shrink bool, progress func(done int)) (artifact any, failed bool)
	Replay(w io.Writer, spec string, shrink bool) (artifact any, failed bool, err error)
}

// progress reports every 50th finished scenario, and the last, on stderr
// under -v.
func progress(label string, n int, verbose bool) func(done int) {
	if !verbose {
		return nil
	}
	return func(done int) {
		if done%50 == 0 || done == n {
			fmt.Fprintf(os.Stderr, "%s: %d/%d\n", label, done, n)
		}
	}
}

// finish writes the JSON artifact, if one was asked for, and exits 1 if any
// scenario failed.
func finish(path string, artifact any, failed bool) {
	if path != "" {
		data, err := json.MarshalIndent(artifact, "", "  ")
		if err == nil {
			err = os.WriteFile(path, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "protocheck: write artifact:", err)
			os.Exit(2)
		}
	}
	if failed {
		os.Exit(1)
	}
}
