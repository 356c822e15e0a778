package ftmodel

// Spare-pool economics, after "Checkpointing vs. Migration for
// Post-Petascale Machines" (Cappello, Casanova, Robert): how many spares
// should a fleet hold?
//
// In a managed fleet every repaired node returns to the spare pool and every
// failure draws one replacement from it, so the pool's mean in- and out-flows
// balance at any size — the pool is not provisioning for the average
// in-repair population m (those nodes are lost to repair no matter what),
// but buffering *bursts*: stretches where failures outrun repairs and the
// in-repair count X ~ Poisson(m) rides above its mean. A pool of K spares
// absorbs an excursion of K; beyond that a failure finds the pool empty and
// suspends a whole MeanWidth-wide job until the repair crew catches up.
//
// That is a newsvendor problem over the Poisson upper tail: the marginal
// spare idles with probability P[X − m ≤ k] and saves an amplified stall
// with probability P[X − m > k], so the optimum sits at the critical
// quantile P[X > m + k*] ≈ 1/(1 + MeanWidth) — K* a little over z·√m, and
// growing with the square root of the failure rate. The fleet autoscaler
// (internal/fleet) retargets its pool from this same optimum, fed by the
// observed failure rate, and the fleet simulation cross-validates it.

import (
	"math"
	"time"
)

// SpareParams describes a fleet for spare-pool sizing.
type SpareParams struct {
	// Nodes is the fleet size (active + spares).
	Nodes int
	// NodeMTBF is the per-node mean time between failures.
	NodeMTBF time.Duration
	// RepairMean is the mean repair (node resurrection) time.
	RepairMean time.Duration
	// MeanWidth is the mean job width in nodes: the stall amplification. A
	// failure beyond the pool idles one W-wide job, so each missing node
	// costs ~MeanWidth node-hours per hour instead of one.
	MeanWidth float64
}

// InRepairMean is the steady-state expected in-repair population with k
// spares held back: in-service nodes (N − k − X̄) fail at rate 1/θ each and
// occupy the repair crew for ρ, so X̄ = (N−k)·r/(1+r) with r = ρ/θ.
func (p SpareParams) InRepairMean(k int) float64 {
	active := float64(p.Nodes - k)
	if active < 0 {
		active = 0
	}
	r := float64(p.RepairMean) / float64(p.NodeMTBF)
	return active * r / (1 + r)
}

// poissonTail returns P[X ≥ k] for X ~ Poisson(m), by stable upward
// recursion on the pmf.
func poissonTail(m float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	p := math.Exp(-m) // P[X = 0]
	cdf := p
	for i := 1; i < k; i++ {
		p *= m / float64(i)
		cdf += p
	}
	if cdf > 1 {
		cdf = 1
	}
	return 1 - cdf
}

// excessMean is E[(X − j)+] for X ~ Poisson(m), from j·P[X=j] = m·P[X=j−1].
func excessMean(m float64, j int) float64 {
	if j < 0 {
		j = 0
	}
	return m*poissonTail(m, j) - float64(j)*poissonTail(m, j+1)
}

// ExpectedShortfall is the average number of failures a pool of k spares
// cannot absorb: E[(X − (m̄ + k))+], the Poisson burst above the
// self-balancing mean in-repair level plus the buffer.
func (p SpareParams) ExpectedShortfall(k int) float64 {
	m := p.InRepairMean(k)
	return excessMean(m, int(math.Floor(m))+k)
}

// ExpectedIdle is the average number of spares sitting unused: the buffer
// minus the burst it is currently absorbing, E[(k − (X − m̄)+)+].
func (p SpareParams) ExpectedIdle(k int) float64 {
	m := p.InRepairMean(k)
	j := int(math.Floor(m))
	// E[(k − Y)+] = k − E[Y] + E[(Y − k)+] with Y = (X − j)+.
	return float64(k) - excessMean(m, j) + excessMean(m, j+k)
}

// SpareLoss is the expected fraction of fleet capacity lost to a pool of k
// spares: the idle buffer plus the MeanWidth-amplified stall when bursts
// outrun it. (The in-repair population itself is lost at any pool size and
// is therefore not chargeable to the sizing decision.)
func (p SpareParams) SpareLoss(k int) float64 {
	w := p.MeanWidth
	if w < 1 {
		w = 1
	}
	return (p.ExpectedIdle(k) + w*p.ExpectedShortfall(k)) / float64(p.Nodes)
}

// OptimalSpares minimizes SpareLoss over the pool size — the discrete
// newsvendor optimum at the critical Poisson quantile. An explicit scan
// keeps it exact when InRepairMean shifts with k.
func (p SpareParams) OptimalSpares() int {
	best, bestLoss := 0, math.Inf(1)
	for k := 0; k <= p.Nodes/2; k++ {
		if loss := p.SpareLoss(k); loss < bestLoss {
			best, bestLoss = k, loss
		}
	}
	return best
}
