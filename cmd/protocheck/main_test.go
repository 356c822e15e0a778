package main

import (
	"strings"
	"testing"
)

func TestFlagConflict(t *testing.T) {
	cases := []struct {
		given []string
		want  []string // flags the error must name; nil means accepted
	}{
		{given: nil},
		{given: []string{"n", "seed", "strategy", "poison", "v", "json"}},
		{given: []string{"spec"}},
		{given: []string{"spec", "json", "shrink"}},
		{given: []string{"fleet", "seed", "v", "json"}},
		{given: []string{"n", "seed", "partitions", "workers", "v", "json"}},
		{given: []string{"n", "workers", "shrink", "parallel"}},
		{given: []string{"spec", "strategy"}, want: []string{"-spec", "-strategy"}},
		{given: []string{"fleet", "strategy"}, want: []string{"-fleet", "-strategy"}},
		{given: []string{"fleet", "spec"}, want: []string{"-fleet", "-spec"}},
		{given: []string{"fleet", "n"}, want: []string{"-fleet", "-n"}},
		{given: []string{"spec", "n"}, want: []string{"-spec", "-n"}},
		{given: []string{"spec", "seed"}, want: []string{"-spec", "-seed"}},
		{given: []string{"partitions", "fleet"}, want: []string{"-partitions", "-fleet"}},
		{given: []string{"workers", "fleet"}, want: []string{"-workers", "-fleet"}},
		{given: []string{"partitions", "strategy"}, want: []string{"-partitions", "-strategy"}},
		{given: []string{"partitions", "spec"}, want: []string{"-partitions", "-spec"}},
		{given: []string{"workers", "strategy"}, want: []string{"-workers", "-strategy"}},
		{given: []string{"workers", "spec"}, want: []string{"-workers", "-spec"}},
	}
	for _, tc := range cases {
		given := map[string]bool{}
		for _, f := range tc.given {
			given[f] = true
		}
		err := flagConflict(given)
		if tc.want == nil {
			if err != nil {
				t.Errorf("%v: unexpected error %v", tc.given, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%v: accepted, want a conflict", tc.given)
			continue
		}
		for _, f := range tc.want {
			if !strings.Contains(err.Error(), f) {
				t.Errorf("%v: error %q does not name %s", tc.given, err, f)
			}
		}
	}
}

// TestSweepKind checks which sweep the flags select, by the header an empty
// sweep of it writes, and that a partitioned setting outside the envelope
// is refused before any scenario runs.
func TestSweepKind(t *testing.T) {
	cases := []struct {
		fleetN, parts, workers int
		head                   string // "" means refused
		count                  int
	}{
		{head: "protocheck: 0 scenarios (seed 1, strategy adaptive)", count: 50},
		{fleetN: 3, head: "protocheck[fleet]: 0 scenarios (seed 1)", count: 3},
		{parts: 4, workers: 4, head: "protocheck[partitioned]: 0 scenarios (seed 1, parts 4, workers 4)", count: 50},
		{parts: -1, head: "protocheck[partitioned]: 0 scenarios (seed 1, parts random 2-5, workers 4)", count: 50},
		{workers: 2, head: "protocheck[partitioned]: 0 scenarios (seed 1, parts random 2-5, workers 2)", count: 50},
		{parts: 1, workers: 2},
		{parts: 65},
		{workers: -1},
	}
	for _, tc := range cases {
		k, count, err := sweepKind("adaptive", 50, tc.fleetN, tc.parts, tc.workers)
		if tc.head == "" {
			if err == nil {
				t.Errorf("%+v: accepted, want an error", tc)
			}
			continue
		}
		if err != nil {
			t.Errorf("%+v: %v", tc, err)
			continue
		}
		var out strings.Builder
		k.Sweep(&out, 0, 1, false, nil)
		if !strings.HasPrefix(out.String(), tc.head+": 0 checked, 0 failed\n") || count != tc.count {
			t.Errorf("%+v: %d scenarios, header %q", tc, count, out.String())
		}
	}
}
