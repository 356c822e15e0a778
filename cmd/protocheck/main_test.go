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
		{given: []string{"spec", "strategy"}, want: []string{"-spec", "-strategy"}},
		{given: []string{"fleet", "strategy"}, want: []string{"-fleet", "-strategy"}},
		{given: []string{"fleet", "spec"}, want: []string{"-fleet", "-spec"}},
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
