package exp

// Fleet-scale campaigns: every scheduling-policy arm runs the SAME workload
// against the SAME pre-sampled failure realization (fleet.BuildSchedule /
// BuildWorkload key off the config seed, which the arms share), so the
// economics differences are pure policy signal. Arms are slot-stable: each
// runs on its own engine in its own slot of a RunParallel fan-out, and the
// rollup is bit-identical at any parallelism.

import (
	"fmt"
	"time"

	"ibmig/internal/fleet"
	"ibmig/internal/metrics"
	"ibmig/internal/sim"
)

// FleetEconomics returns the base configuration of EXPERIMENTS.md's fleet
// economics campaign: 1,000 nodes, 200 jobs and 30 simulated days, or a
// one-week 128-node fleet when quick is set. MeanWork is sized so total
// demand slightly exceeds capacity over the horizon: a queue forms and the
// scheduling arms diverge (an underloaded fleet makes backfill
// indistinguishable from FIFO).
func FleetEconomics(seed int64, quick bool) fleet.Config {
	if quick {
		return fleet.Config{
			Nodes:    128,
			RackSize: 8,
			NodeMTBF: 4 * 24 * time.Hour,
			Horizon:  7 * 24 * time.Hour,
			Jobs:     64,
			MaxWidth: 24,
			MeanWork: 18 * time.Hour,
			Seed:     seed,
		}
	}
	return fleet.Config{
		Nodes:    1000,
		RackSize: 10,
		NodeMTBF: 4 * 24 * time.Hour,
		Horizon:  30 * 24 * time.Hour,
		Jobs:     200,
		MaxWidth: 64,
		MeanWork: 120 * time.Hour,
		Seed:     seed,
	}
}

// fleetArm is one campaign arm: a scheduling policy, and whether the
// autoscaler retargets the spare pool.
type fleetArm struct {
	name      string
	policy    fleet.Policy
	autoScale bool
}

// fleetArms is the four-way {fifo, backfill} × {fixed, autoscale} grid
// every fleet campaign runs.
var fleetArms = []fleetArm{
	{name: "fifo", policy: fleet.PolicyFIFO},
	{name: "backfill", policy: fleet.PolicyBackfill},
	{name: "fifo+auto", policy: fleet.PolicyFIFO, autoScale: true},
	{name: "backfill+auto", policy: fleet.PolicyBackfill, autoScale: true},
}

// FleetArmResult is one arm's economics rollup.
type FleetArmResult struct {
	Name string        `json:"name"`
	R    *fleet.Result `json:"result"`
}

// FleetCampaignResult is the full campaign: one rollup per arm, same
// failure realization throughout.
type FleetCampaignResult struct {
	Arms []FleetArmResult `json:"arms"`
}

// RunFleetCampaign runs every arm of the campaign on the base config, fanned
// across Parallelism() engines. Arm i writes only slot i, so the result is
// independent of the fan-out.
func RunFleetCampaign(base fleet.Config) *FleetCampaignResult {
	res := &FleetCampaignResult{Arms: make([]FleetArmResult, len(fleetArms))}
	tasks := make([]func(), len(fleetArms))
	for i, arm := range fleetArms {
		i, arm := i, arm
		tasks[i] = func() {
			cfg := base
			cfg.Policy = arm.policy
			cfg.AutoScale = arm.autoScale
			e := sim.NewEngine(cfg.Seed)
			res.Arms[i] = FleetArmResult{Name: arm.name, R: fleet.New(e, cfg).Run()}
		}
	}
	RunParallel(tasks...)
	return res
}

// FormatFleet renders the campaign as the fleet-economics table of
// EXPERIMENTS.md: per policy arm, goodput, the node-hours-lost breakdown,
// reliability figures, and queue waits.
func FormatFleet(res *FleetCampaignResult) string {
	headers := []string{"arm", "goodput %", "lost nh", "ckpt", "rework", "migr", "restart", "stall", "mtti h", "mttr h", "wait h", "done"}
	var rows [][]string
	for _, arm := range res.Arms {
		r := arm.R
		rows = append(rows, []string{
			arm.Name,
			fmt.Sprintf("%.2f", r.GoodputPct),
			fmt.Sprintf("%.0f", r.NodeHoursLost),
			fmt.Sprintf("%.0f", r.CkptNH),
			fmt.Sprintf("%.0f", r.ReworkNH),
			fmt.Sprintf("%.0f", r.MigrNH),
			fmt.Sprintf("%.0f", r.RestartNH),
			fmt.Sprintf("%.0f", r.StallNH),
			fmt.Sprintf("%.1f", r.MTTIHours),
			fmt.Sprintf("%.2f", r.MTTRHours),
			fmt.Sprintf("%.2f", r.WaitMeanH),
			fmt.Sprintf("%d/%d", r.JobsCompleted, r.JobsTotal),
		})
	}
	return metrics.Table(headers, rows)
}
