package check

import (
	"cmp"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync/atomic"

	"ibmig/internal/exp"
	"ibmig/internal/sim"
)

// The harness around the runners is written once for every spec kind. A
// kind (migration, fleet or partitioned) supplies its spec type with a field
// table, a generator, a runner, and the tallies its summary keeps; the
// sweep, the replay, the shrink to a repro and the report are shared.

// outcome opens every kind's run result: the spec, the scenario it names,
// and the invariants the run violated.
type outcome[S spec[S]] struct {
	Spec       string      `json:"spec"`
	Scenario   S           `json:"scenario"`
	Violations []Violation `json:"violations,omitempty"`
}

// Failed reports whether any invariant was violated.
func (o *outcome[S]) Failed() bool { return len(o.Violations) > 0 }

func (o *outcome[S]) base() *outcome[S] { return o }

// guard records s and runs body, holding the checks every kind shares: a
// spec outside its kind's envelope is a "spec-valid" violation instead of a
// run, and a panic anywhere in the run is a "no-panic" violation, stamped
// with the sim time *at holds then (zero if at is nil).
func (o *outcome[S]) guard(s S, at *sim.Time, body func()) {
	o.Spec, o.Scenario = s.String(), s
	defer func() {
		if r := recover(); r != nil {
			v := Violation{Invariant: "no-panic", Detail: fmt.Sprint(r)}
			if at != nil {
				v.T = *at
			}
			o.Violations = append(o.Violations, v)
		}
	}()
	if err := s.Valid(); err != nil {
		o.Violations = append(o.Violations, Violation{Invariant: "spec-valid", Detail: err.Error()})
		return
	}
	body()
}

// result is a kind's run result (*Result, *FleetResult, *PartResult).
type result[S spec[S]] interface {
	base() *outcome[S]
	// describe writes a replay's opening lines: the spec and what the run
	// did.
	describe(w io.Writer)
}

// sweepHead opens every kind's sweep summary, the JSON artifact protocheck
// writes.
type sweepHead[R any] struct {
	N          int            `json:"n"`
	Seed       int64          `json:"seed"`
	Strategy   string         `json:"strategy,omitempty"` // migration sweeps
	Checked    int            `json:"checked"`
	Failures   []R            `json:"failures,omitempty"`
	Invariants map[string]int `json:"violations_by_invariant,omitempty"`
}

// summary is a kind's sweep summary (*Summary, *FleetSummary, *partSummary):
// the shared head plus the tallies of how much of the outcome space the sweep
// covered.
type summary[R any] interface {
	header() *sweepHead[R]
	add(r R)
	writeTallies(w io.Writer)
}

// Kind is one spec kind the harness sweeps and replays: the migration, the
// fleet or the partitioned scenarios. It supplies what differs between them;
// its methods are the shared path.
type Kind[S spec[S], R result[S], T summary[R]] struct {
	label    string
	scope    string // the sweep's setting, after its seed in the summary
	width    int    // invariant-name column of the summary
	holds    string // a passing replay's verdict
	parse    func(spec string) (S, error)
	generate func(seed int64) S
	run      func(S) R
	summary  func() T
}

// Migration is the migration-scenario kind. Its sweeps run every scenario
// under the named strategy ("" = proactive); a replayed spec names its own.
func Migration(strat string) Kind[Scenario, *Result, *Summary] {
	return Kind[Scenario, *Result, *Summary]{
		label: "protocheck",
		scope: ", strategy " + cmp.Or(strat, "proactive"),
		width: 20,
		holds: "all invariants hold",
		parse: Parse,
		generate: func(seed int64) Scenario {
			sc := Generate(seed)
			sc.Strategy = strat
			return sc
		},
		run:     RunScenario,
		summary: func() *Summary { return &Summary{sweepHead: sweepHead[*Result]{Strategy: strat}} },
	}
}

// Fleet is the fleet-scenario kind.
var Fleet = Kind[FleetScenario, *FleetResult, *FleetSummary]{
	label:    "protocheck[fleet]",
	width:    22,
	holds:    "all fleet invariants hold",
	parse:    ParseFleet,
	generate: GenerateFleet,
	run:      RunFleetScenario,
	summary:  func() *FleetSummary { return &FleetSummary{} },
}

// sweep runs the specs through exp.Map (one engine per goroutine). Run i
// lands in slot i, so the summary is identical at any parallelism.
// progress, if non-nil, is called with the number of runs finished so far.
func (k Kind[S, R, T]) sweep(n int, seed int64, progress func(done int)) T {
	var done atomic.Int64
	results := exp.Map(n, func(i int) R {
		r := k.run(k.generate(seed + int64(i)))
		if progress != nil {
			progress(int(done.Add(1)))
		}
		return r
	})
	sum := k.summary()
	h := sum.header()
	h.N, h.Seed, h.Invariants = n, seed, map[string]int{}
	for _, r := range results {
		h.Checked++
		sum.add(r)
		if r.base().Failed() {
			h.Failures = append(h.Failures, r)
			for _, v := range r.base().Violations {
				h.Invariants[v.Invariant]++
			}
		}
	}
	return sum
}

// write renders the human-readable sweep summary.
func (k Kind[S, R, T]) write(w io.Writer, sum T) {
	h := sum.header()
	fmt.Fprintf(w, "%s: %d scenarios (seed %d%s): %d checked, %d failed\n",
		k.label, h.N, h.Seed, k.scope, h.Checked, len(h.Failures))
	sum.writeTallies(w)
	names := make([]string, 0, len(h.Invariants))
	for name := range h.Invariants {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  violated: %-*s x%d\n", k.width, name, h.Invariants[name])
	}
}

// Sweep runs the n generated specs seeded seed..seed+n-1 across CPUs. It
// writes the summary and then each failure with its violations and, if
// shrink is set, the minimal spec that still fails. progress, if non-nil,
// gets a line at every 50th finished run and at the last. Sweep returns the
// summary, which is the JSON artifact, and whether any spec failed.
func (k Kind[S, R, T]) Sweep(w io.Writer, n int, seed int64, shrink bool, progress io.Writer) (any, bool) {
	sum := k.sweep(n, seed, func(done int) {
		if progress != nil && (done%50 == 0 || done == n) {
			fmt.Fprintf(progress, "%s: %d/%d\n", k.label, done, n)
		}
	})
	k.write(w, sum)
	failures := sum.header().Failures
	for _, r := range failures {
		fmt.Fprintf(w, "\nFAIL %s\n", r.base().Spec)
		for _, v := range r.base().Violations {
			fmt.Fprintf(w, "  %s\n", v)
		}
		k.repro(w, r.base().Scenario, shrink)
	}
	return sum, len(failures) > 0
}

// Replay parses and runs one spec of the kind its leading token names
// ("flt", "part", or none for a migration scenario) and writes its report,
// shrinking a failure as Sweep does. It returns the result, which is the
// JSON artifact, and whether the spec failed.
func Replay(w io.Writer, spec string, shrink bool) (any, bool, error) {
	switch prefix, _, _ := strings.Cut(strings.TrimSpace(spec), " "); prefix {
	case fleetSpec.prefix:
		return Fleet.replay(w, spec, shrink)
	case partSpec.prefix:
		k, _ := Partitioned(0, 1)
		return k.replay(w, spec, shrink)
	}
	return Migration("").replay(w, spec, shrink)
}

func (k Kind[S, R, T]) replay(w io.Writer, spec string, shrink bool) (any, bool, error) {
	s, err := k.parse(spec)
	if err != nil {
		return nil, false, err
	}
	r := k.run(s)
	r.describe(w)
	if !r.base().Failed() {
		fmt.Fprintf(w, "  %s\n", k.holds)
		return r, false, nil
	}
	for _, v := range r.base().Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
	k.repro(w, s, shrink)
	return r, true, nil
}

// repro writes the minimal spec that still fails, if shrink is set.
func (k Kind[S, R, T]) repro(w io.Writer, s S, shrink bool) {
	if shrink {
		min := Shrink(s, func(c S) bool { return k.run(c).base().Failed() })
		fmt.Fprintf(w, "  repro: protocheck -spec %q\n", min)
	}
}
