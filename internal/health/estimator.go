package health

// RateEstimator is a Bayesian failure-rate estimator: a Gamma(α, β) prior
// over the per-node-hour failure rate, updated by observed failure counts
// against node-hour exposure. The posterior mean (α+n)/(β+exposure) blends
// the prior MTBF with the observed rate, so a young fleet starts from the
// vendor number and an old one trusts its own history — the fleet spare-pool
// autoscaler retargets from it.
type RateEstimator struct {
	alpha float64 // prior pseudo-failures
	beta  float64 // prior pseudo-exposure (node-hours)
	n     int     // observed failures
}

// NewRateEstimator builds an estimator around a prior rate (failures per
// node-hour) with the given weight in pseudo-failures: the prior carries as
// much evidence as `weight` real failures would.
func NewRateEstimator(priorPerNodeHour, weight float64) *RateEstimator {
	if priorPerNodeHour <= 0 {
		priorPerNodeHour = 1.0 / (6 * 24) // one per node per six days
	}
	if weight <= 0 {
		weight = 1
	}
	return &RateEstimator{alpha: weight, beta: weight / priorPerNodeHour}
}

// Observe records one failure.
func (e *RateEstimator) Observe() { e.n++ }

// Rate returns the posterior mean failure rate (failures per node-hour)
// given the exposure accumulated so far, in node-hours.
func (e *RateEstimator) Rate(exposureNodeHours float64) float64 {
	if exposureNodeHours < 0 {
		exposureNodeHours = 0
	}
	return (e.alpha + float64(e.n)) / (e.beta + exposureNodeHours)
}
