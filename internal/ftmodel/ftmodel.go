// Package ftmodel quantifies the paper's closing claim: "our approach has
// the potential to benefit the existing Checkpoint/Restart strategy by
// prolonging the interval between full job-wide checkpoints" (section VI).
//
// It implements the classic exponential checkpoint-interval model (Young
// 1974; Daly 2006) and extends it with *proactive-failure coverage*: a
// fraction c of failures is predicted early enough to be handled by job
// migration (cost m, no rollback, no work lost) instead of by rollback to
// the last checkpoint. Only the remaining (1-c) of failures force rollback,
// so the effective failure rate seen by the checkpointing machinery drops to
// (1-c)/MTBF — and the optimal interval stretches by ~1/sqrt(1-c).
//
// The model's inputs (checkpoint cost, restart cost, migration cost) come
// from the simulation's measured Fig. 7 phases, closing the loop between the
// systems experiments and the availability analysis.
package ftmodel

import (
	"fmt"
	"math"
	"time"
)

// Params describes a machine and its fault-tolerance costs.
type Params struct {
	// Nodes in the job and per-node mean time between failures.
	Nodes    int
	NodeMTBF time.Duration

	// CheckpointCost is one coordinated job-wide checkpoint (δ).
	CheckpointCost time.Duration
	// RestartCost is the rollback cost after an unpredicted failure
	// (restart + requeue downtime).
	RestartCost time.Duration
	// MigrationCost is one proactive migration (the full four-phase cycle).
	MigrationCost time.Duration

	// Coverage is the fraction of failures predicted early enough to migrate
	// away from (0..1).
	Coverage float64
}

// Validate reports configuration errors.
func (p Params) Validate() error {
	switch {
	case p.Nodes <= 0:
		return fmt.Errorf("ftmodel: nodes must be positive")
	case p.NodeMTBF <= 0:
		return fmt.Errorf("ftmodel: node MTBF must be positive")
	case p.CheckpointCost <= 0:
		return fmt.Errorf("ftmodel: checkpoint cost must be positive")
	case p.Coverage < 0 || p.Coverage > 1:
		return fmt.Errorf("ftmodel: coverage must be in [0,1]")
	}
	return nil
}

// SystemMTBF is the job-wide mean time between failures: node MTBF divided
// by the node count (independent exponential failures).
func (p Params) SystemMTBF() time.Duration {
	return time.Duration(float64(p.NodeMTBF) / float64(p.Nodes))
}

// uncoveredMTBF is the mean time between *rollback-causing* failures.
func (p Params) uncoveredMTBF() float64 {
	m := float64(p.SystemMTBF())
	c := p.Coverage
	if c >= 1 {
		return math.Inf(1)
	}
	return m / (1 - c)
}

// expectedFactor returns the expected wall time per unit of useful work when
// checkpointing every tau (all arguments in float64 nanoseconds):
//
//	T_base/W = M_u · e^(R/M_u) · (e^((τ+δ)/M_u) − 1) / τ
//	T/W      = (T_base/W) / (1 − m·c/M)   (migrations at rate c/M, cost m)
//
// Large τ/M_u makes the exponential blow up; the result saturates at +Inf
// rather than overflowing.
func (p Params) expectedFactor(tau float64) float64 {
	delta := float64(p.CheckpointCost)
	mu := p.uncoveredMTBF()
	var base float64
	if math.IsInf(mu, 1) {
		// Full coverage: no rollbacks; checkpoints still cost their overhead.
		base = 1 + delta/tau
	} else {
		r := float64(p.RestartCost)
		base = mu * math.Exp(r/mu) * math.Expm1((tau+delta)/mu) / tau
	}
	// Migration overhead: predicted failures occur at rate Coverage/MTBF of
	// wall time, each costing MigrationCost.
	mig := float64(p.MigrationCost) * p.Coverage / float64(p.SystemMTBF())
	if mig >= 1 {
		return math.Inf(1)
	}
	return base / (1 - mig)
}

// OptimalInterval minimizes the expected runtime over the checkpoint
// interval by golden-section search (deterministic; the objective is
// unimodal in τ).
func (p Params) OptimalInterval() time.Duration {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	lo := float64(p.CheckpointCost)
	hi := 50 * float64(p.SystemMTBF())
	if mu := p.uncoveredMTBF(); !math.IsInf(mu, 1) && 50*mu > hi {
		hi = 50 * mu
	}
	if math.IsInf(hi, 1) || hi > 1e18 {
		hi = 1e18 // full coverage: overhead is monotone-decreasing in τ
	}
	const phi = 0.6180339887498949
	a, b := lo, hi
	c := b - phi*(b-a)
	d := a + phi*(b-a)
	fc, fd := p.expectedFactor(c), p.expectedFactor(d)
	for i := 0; i < 300 && (b-a) > 1e-4*a; i++ {
		if fc < fd {
			b, d, fd = d, c, fc
			c = b - phi*(b-a)
			fc = p.expectedFactor(c)
		} else {
			a, c, fc = c, d, fd
			d = a + phi*(b-a)
			fd = p.expectedFactor(d)
		}
	}
	return time.Duration((a + b) / 2)
}

// Efficiency is useful work over expected wall time at the optimal interval.
func (p Params) Efficiency() float64 {
	return 1 / p.expectedFactor(float64(p.OptimalInterval()))
}
