package obs

import "ibmig/internal/sim"

// maxUsageSamples caps the per-track sample timeline kept for export. The
// aggregate statistics (busy time, usage integral, peak) are always exact;
// only the point-by-point timeline is truncated on very long runs.
const maxUsageSamples = 1 << 16

// UsageSample is one utilization data point: the device's in-use amount
// changed to Used at time T.
type UsageSample struct {
	T    sim.Time
	Used int64
}

// UsageTrack is the utilization timeline of one device (an IB link's
// serializer, a disk head, a buffer pool), fed by acquire/release
// transitions. BusyTime integrates time with Used > 0; UsedIntegral
// integrates Used·dt (so UsedIntegral/elapsed/Capacity is mean utilization).
type UsageTrack struct {
	Name         string
	Capacity     int64
	Samples      []UsageSample
	Truncated    bool // timeline capped at maxUsageSamples; aggregates still exact
	BusyTime     sim.Duration
	UsedIntegral float64 // ∫ used dt, in unit·ns
	Peak         int64
	First        sim.Time
	Last         sim.Time

	lastT    sim.Time
	lastUsed int64
	started  bool
}

func newUsageTrack(name string, capacity int64) *UsageTrack {
	return &UsageTrack{Name: name, Capacity: capacity}
}

func (tr *UsageTrack) sample(t sim.Time, used int64) {
	if !tr.started {
		tr.started = true
		tr.First = t
	} else {
		tr.integrate(t)
	}
	tr.lastT, tr.lastUsed = t, used
	tr.Last = t
	if used > tr.Peak {
		tr.Peak = used
	}
	if len(tr.Samples) < maxUsageSamples {
		tr.Samples = append(tr.Samples, UsageSample{t, used})
	} else {
		tr.Truncated = true
	}
}

func (tr *UsageTrack) integrate(t sim.Time) {
	dt := t.Sub(tr.lastT)
	if dt <= 0 {
		return
	}
	if tr.lastUsed > 0 {
		tr.BusyTime += dt
	}
	tr.UsedIntegral += float64(tr.lastUsed) * float64(dt)
}

// finish closes the integrals at time t.
func (tr *UsageTrack) finish(t sim.Time) {
	if !tr.started || t < tr.lastT {
		return
	}
	tr.integrate(t)
	tr.lastT = t
	tr.Last = t
}

// BusyFraction returns the fraction of [First, Last] the device was busy.
func (tr *UsageTrack) BusyFraction() float64 {
	if tr == nil || !tr.started {
		return 0
	}
	span := tr.Last.Sub(tr.First)
	if span <= 0 {
		return 0
	}
	return float64(tr.BusyTime) / float64(span)
}

// MeanUtilization returns mean used/capacity over [First, Last].
func (tr *UsageTrack) MeanUtilization() float64 {
	if tr == nil || !tr.started || tr.Capacity == 0 {
		return 0
	}
	span := tr.Last.Sub(tr.First)
	if span <= 0 {
		return 0
	}
	return tr.UsedIntegral / float64(span) / float64(tr.Capacity)
}

// PeakUtilization returns the maximum used/capacity seen.
func (tr *UsageTrack) PeakUtilization() float64 {
	if tr == nil || tr.Capacity == 0 {
		return 0
	}
	return float64(tr.Peak) / float64(tr.Capacity)
}
