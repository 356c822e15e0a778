package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so one slow op cannot set it.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-quantile of n samples.
func rank(n int, p float64) int { return max(1, int(math.Ceil(p*float64(n)))) }

// beyond is how many of n samples lie beyond their p-quantile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// refuses one with fewer than minBeyond samples beyond it.
func percentile(xs []float64, p float64) (float64, error) {
	if b := beyond(len(xs), p); b < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, len(xs), b, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1], nil
}

// tailPercentile is the highest of p50/p90/p95/p99 that the percentile rule
// allows for n samples, or 0 when even the median is refused.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.50, 0.90, 0.95, 0.99} {
		if beyond(n, p) >= minBeyond {
			best = p
		}
	}
	return best
}

// median is the middle value of xs (the mean of the two middle values for an
// even count); it is for repeated measurements, not for op latencies, which
// go through percentile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
