package check

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"

	"ibmig/internal/exp"
)

// Summary aggregates a sweep of N seeded scenarios — the JSON artifact
// cmd/protocheck emits for the CI job.
type Summary struct {
	N          int            `json:"n"`
	Seed       int64          `json:"seed"`
	Strategy   string         `json:"strategy,omitempty"`
	Checked    int            `json:"checked"`
	Failures   []*Result      `json:"failures,omitempty"`
	Invariants map[string]int `json:"violations_by_invariant,omitempty"`

	// Coverage tallies: how much of the outcome space the sweep exercised.
	Completed        int `json:"migrations_completed"`
	Aborted          int `json:"migrations_aborted"`
	Retries          int `json:"spare_retries"`
	Fallbacks        int `json:"cr_fallbacks"`
	ReactiveRestarts int `json:"reactive_restarts"`
	ReplicaRestores  int `json:"replica_restores"`
	SpareExhaustions int `json:"spare_exhaustions"`
	PolicyCkpts      int `json:"policy_ckpts"`
	JobsLost         int `json:"jobs_lost"`
	Faulted          int `json:"scenarios_with_faults"`
	Perturbed        int `json:"scenarios_perturbed"`

	TotalEvents uint64 `json:"total_events"`
}

// Sweep runs scenarios Generate(seed)..Generate(seed+n-1) under the named
// fault-tolerance strategy ("" = the default proactive policy).
func Sweep(n int, seed int64, strat string, progress func(done int)) *Summary {
	results := fanOut(n, progress, func(i int) *Result {
		sc := Generate(seed + int64(i))
		sc.Strategy = strat
		return RunScenario(sc)
	})
	return summarize(results, n, seed, strat)
}

// fanOut runs run(0)..run(n-1), fanning engines across CPUs via
// exp.RunParallel (one engine per goroutine). Result i lands in slot i, so
// what a sweep computes from them is identical at any parallelism. progress,
// if non-nil, is called with the number of runs finished so far.
func fanOut[R any](n int, progress func(done int), run func(i int) R) []R {
	results := make([]R, n)
	var done atomic.Int64
	tasks := make([]func(), n)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			results[i] = run(i)
			if progress != nil {
				progress(int(done.Add(1)))
			}
		}
	}
	exp.RunParallel(tasks...)
	return results
}

func summarize(results []*Result, n int, seed int64, strat string) *Summary {
	s := &Summary{N: n, Seed: seed, Strategy: strat, Invariants: map[string]int{}}
	for _, r := range results {
		if r == nil {
			continue
		}
		s.Checked++
		s.Completed += r.Completed
		s.Aborted += r.Aborted
		s.Retries += r.Retries
		s.Fallbacks += r.Fallbacks
		s.ReactiveRestarts += r.ReactiveRestarts
		s.ReplicaRestores += r.ReplicaRestores
		s.SpareExhaustions += r.SpareExhaustions
		s.PolicyCkpts += r.PolicyCkpts
		s.TotalEvents += r.Events
		if r.JobLost {
			s.JobsLost++
		}
		if r.Faults > 0 {
			s.Faulted++
		}
		if r.Scenario.Perturb != 0 {
			s.Perturbed++
		}
		if r.Failed() {
			s.Failures = append(s.Failures, r)
			for _, v := range r.Violations {
				s.Invariants[v.Invariant]++
			}
		}
	}
	return s
}

// Write renders the human-readable sweep summary.
func (s *Summary) Write(w io.Writer) {
	strat := s.Strategy
	if strat == "" {
		strat = "proactive"
	}
	fmt.Fprintf(w, "protocheck: %d scenarios (seed %d, strategy %s): %d checked, %d failed\n",
		s.N, s.Seed, strat, s.Checked, len(s.Failures))
	fmt.Fprintf(w, "  outcomes: %d completed, %d aborted, %d spare retries, %d CR fallbacks, %d jobs lost\n",
		s.Completed, s.Aborted, s.Retries, s.Fallbacks, s.JobsLost)
	fmt.Fprintf(w, "  recovery: %d reactive restarts, %d replica restores, %d spare exhaustions, %d policy ckpts\n",
		s.ReactiveRestarts, s.ReplicaRestores, s.SpareExhaustions, s.PolicyCkpts)
	fmt.Fprintf(w, "  coverage: %d/%d scenarios faulted, %d/%d perturbed, %d kernel events\n",
		s.Faulted, s.Checked, s.Perturbed, s.Checked, s.TotalEvents)
	if len(s.Invariants) > 0 {
		names := make([]string, 0, len(s.Invariants))
		for name := range s.Invariants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(w, "  violated: %-20s x%d\n", name, s.Invariants[name])
		}
	}
}
