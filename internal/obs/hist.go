package obs

// Histogram is a fixed-bucket histogram. Bucket i counts observations
// v <= Bounds[i]; the final implicit bucket counts overflow. Fixed bounds
// keep snapshots deterministic and mergeable across engines.
//
// All methods no-op (or return zeros) on a nil receiver, so code can call
// Observe on the result of Collector.Hist without a nil check.
type Histogram struct {
	Bounds []float64 // ascending upper bounds
	Counts []int64   // len(Bounds)+1: last bucket is > Bounds[len-1]
	N      int64
	Sum    float64
	MinV   float64
	MaxV   float64

	// Back-pointer to the owning collector (set by Collector.Hist, nil for
	// merged/standalone histograms) so Observe can stream observations.
	col  *Collector
	name string
}

// Standard bucket ladders, in microseconds: roughly logarithmic from 1 µs to
// ~16 s. Shared by RDMA chunk latency, FTB delivery delay, aggregation-buffer
// wait and storage writes so merged snapshots line up.
var LatencyBucketsUS = []float64{
	1, 2, 5, 10, 20, 50, 100, 200, 500,
	1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5,
	1e6, 2e6, 5e6, 1e7, 1.6e7,
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{Bounds: b, Counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	if h.N == 0 || v < h.MinV {
		h.MinV = v
	}
	if h.N == 0 || v > h.MaxV {
		h.MaxV = v
	}
	h.N++
	h.Sum += v
	h.Counts[h.bucket(v)]++
	if h.col != nil && h.col.emitting() {
		h.col.emit(Event{Kind: EvHist, T: h.col.lastT, Name: h.name, Value: v, bounds: h.Bounds})
	}
}

func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.Bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.Bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.N
}

// Mean returns the arithmetic mean of observations, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h == nil || h.N == 0 {
		return 0
	}
	return h.Sum / float64(h.N)
}

// Min and Max return the observed extrema (0 when empty).
func (h *Histogram) Min() float64 {
	if h == nil {
		return 0
	}
	return h.MinV
}
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	return h.MaxV
}

// Quantile estimates the q-quantile (0 <= q <= 1) by linear interpolation
// within the bucket containing the target rank, clamped to the observed
// min/max so estimates never leave the data's range. Overflow-bucket targets
// return Max.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || h.N == 0 {
		return 0
	}
	if q <= 0 {
		return h.MinV
	}
	if q >= 1 {
		return h.MaxV
	}
	rank := q * float64(h.N)
	var cum int64
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.Bounds) { // overflow bucket: no upper bound
				return h.MaxV
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			v := lo + (hi-lo)*frac
			if v < h.MinV {
				v = h.MinV
			}
			if v > h.MaxV {
				v = h.MaxV
			}
			return v
		}
		cum += n
	}
	return h.MaxV
}
