package ftmodel

// The Monte-Carlo oracle for the analytic model, and the closed forms the
// tests compare with it. Production code calls expectedFactor,
// OptimalInterval and Efficiency; these live with the tests that use them.

import (
	"math"
	"math/rand"
	"time"
)

// Simulate runs a Monte-Carlo validation of the analytic model: it plays the
// life of a job with `solve` of useful work under exponential failures,
// periodic checkpoints every `interval`, rollbacks on unpredicted failures
// and proactive migrations on predicted ones, over `trials` independent
// runs, and returns the mean wall time.
//
// It exists to check the closed-form ExpectedRuntime against an independent
// event-driven implementation (see TestMonteCarloMatchesAnalytic); the
// experiment harness uses the closed form.
func (p Params) Simulate(solve, interval time.Duration, trials int, seed int64) time.Duration {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))
	mtbf := float64(p.SystemMTBF())
	tau := float64(interval)
	delta := float64(p.CheckpointCost)
	restart := float64(p.RestartCost)
	migration := float64(p.MigrationCost)

	var total float64
	for trial := 0; trial < trials; trial++ {
		var wall float64        // wall time elapsed
		var done float64        // useful work completed and checkpointed
		var segProgress float64 // useful work since the last checkpoint
		nextFailure := rng.ExpFloat64() * mtbf
		for done+segProgress < float64(solve) {
			// Time until this segment's next boundary: either the checkpoint
			// point or the end of the job.
			remainingSeg := tau - segProgress
			if left := float64(solve) - done - segProgress; left < remainingSeg {
				remainingSeg = left
			}
			if wall+remainingSeg < nextFailure {
				// Segment completes; pay the checkpoint unless the job is done.
				wall += remainingSeg
				segProgress += remainingSeg
				if done+segProgress < float64(solve) {
					wall += delta
					done += segProgress
					segProgress = 0
				}
				continue
			}
			// A failure interrupts the segment.
			progressed := nextFailure - wall
			wall = nextFailure
			nextFailure = wall + rng.ExpFloat64()*mtbf
			if rng.Float64() < p.Coverage {
				// Predicted: migrate away; no work lost.
				segProgress += math.Max(progressed, 0)
				wall += migration
			} else {
				// Unpredicted: roll back to the last checkpoint.
				segProgress = 0
				wall += restart
			}
		}
		total += wall
	}
	return time.Duration(total / float64(trials))
}

// ExpectedRuntime returns the expected wall time to complete solve time of
// useful work when checkpointing every interval, under Daly's exponential
// model plus the expected proactive-migration overhead. Saturates at the
// maximum duration instead of overflowing.
func (p Params) ExpectedRuntime(solve time.Duration, interval time.Duration) time.Duration {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	t := p.expectedFactor(float64(interval)) * float64(solve)
	if math.IsInf(t, 1) || t > float64(math.MaxInt64) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(t)
}

// YoungInterval is the first-order optimum sqrt(2·δ·M_u), for reference and
// testing.
func (p Params) YoungInterval() time.Duration {
	mu := p.uncoveredMTBF()
	if math.IsInf(mu, 1) {
		return time.Duration(math.MaxInt64)
	}
	return time.Duration(math.Sqrt(2 * float64(p.CheckpointCost) * mu))
}

// OptimalSpareFraction is OptimalSpares over the fleet size.
func (p SpareParams) OptimalSpareFraction() float64 {
	return float64(p.OptimalSpares()) / float64(p.Nodes)
}
