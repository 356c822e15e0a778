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
//	protocheck -n 200 -partitions 4 -workers 4     # partitioned-engine invariant sweep
//	protocheck -spec "part seed=7 p=4 w=4"         # replay one partitioned scenario
package main

import (
	"cmp"
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
		workers  = flag.Int("workers", 0, "worker goroutines per partitioned scenario (implies the partitioned sweep; 0 = 4; determinism is cross-checked against workers=1)")
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

	_, err := strategy.ByName(*strat)
	refuse(err)
	given := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { given[f.Name] = true })
	refuse(flagConflict(given))

	if *invs {
		for _, inv := range check.Registry() {
			fmt.Printf("%-20s %s\n", inv.Name, inv.Desc)
		}
		return
	}

	exp.SetParallelism(*parallel)

	if *spec != "" {
		res, failed, err := check.Replay(os.Stdout, *spec, *shrink)
		refuse(err)
		finish(*jsonOut, res, failed)
		return
	}
	k, count, err := sweepKind(*strat, *n, *fleetN, *parts, *workers)
	refuse(err)
	var progress io.Writer
	if *verbose {
		progress = os.Stderr
	}
	sum, failed := k.Sweep(os.Stdout, count, *seed, *shrink, progress)
	finish(*jsonOut, sum, failed)
}

// sweepKind picks the kind a sweep runs and its scenario count from the
// flags: partitioned if -partitions or -workers is set, else fleet if -fleet
// is, else migration. A partitioned setting outside the envelope is an error.
func sweepKind(strat string, n, fleetN, parts, workers int) (kind, int, error) {
	switch {
	case parts != 0 || workers != 0:
		k, err := check.Partitioned(max(parts, 0), cmp.Or(workers, 4))
		return k, n, err
	case fleetN > 0:
		return check.Fleet, fleetN, nil
	}
	return check.Migration(strat), n, nil
}

// ignores lists, for each flag that selects a run, the flags that run would
// ignore: a replayed spec names its own kind, seed and settings, the fleet
// sweep its own scenario count, and the partitioned sweep wins over the
// fleet sweep; neither runs a migration strategy.
var ignores = []struct{ mode, ignored string }{
	{"spec", "strategy"},
	{"spec", "fleet"},
	{"spec", "partitions"},
	{"spec", "workers"},
	{"spec", "n"},
	{"spec", "seed"},
	{"fleet", "strategy"},
	{"fleet", "n"},
	{"partitions", "strategy"},
	{"partitions", "fleet"},
	{"workers", "strategy"},
	{"workers", "fleet"},
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

// kind is a check spec kind: check.Migration, check.Fleet or
// check.Partitioned.
type kind interface {
	Sweep(w io.Writer, n int, seed int64, shrink bool, progress io.Writer) (artifact any, failed bool)
}

// refuse exits with status 2 if err is set: the command line asks for a run
// protocheck cannot make.
func refuse(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "protocheck:", err)
		os.Exit(2)
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
			refuse(fmt.Errorf("write artifact: %w", err))
		}
	}
	if failed {
		os.Exit(1)
	}
}
