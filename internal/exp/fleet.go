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

// FleetArmSpec names one campaign arm: a policy plus its spare-pool regime.
type FleetArmSpec struct {
	Name      string
	Policy    fleet.Policy
	SpareFrac float64 // 0 keeps the base config's fraction
	AutoScale bool
}

// FleetCampaignSpec configures a fleet campaign. Arms default to the
// four-way {fifo, backfill} × {fixed, autoscale} grid.
type FleetCampaignSpec struct {
	Base fleet.Config
	Arms []FleetArmSpec
}

func (spec FleetCampaignSpec) withDefaults() FleetCampaignSpec {
	if len(spec.Arms) == 0 {
		spec.Arms = []FleetArmSpec{
			{Name: "fifo", Policy: fleet.PolicyFIFO},
			{Name: "backfill", Policy: fleet.PolicyBackfill},
			{Name: "fifo+auto", Policy: fleet.PolicyFIFO, AutoScale: true},
			{Name: "backfill+auto", Policy: fleet.PolicyBackfill, AutoScale: true},
		}
	}
	return spec
}

// FleetArmResult is one arm's economics rollup.
type FleetArmResult struct {
	Name string        `json:"name"`
	R    *fleet.Result `json:"result"`
}

// FleetCampaignResult is the full campaign: one rollup per arm, same
// failure realization throughout.
type FleetCampaignResult struct {
	Spec FleetCampaignSpec `json:"-"`
	Arms []FleetArmResult  `json:"arms"`
}

// RunFleetCampaign runs every arm of the campaign, fanned across
// Parallelism() engines. Arm i writes only slot i, so the result is
// independent of the fan-out.
func RunFleetCampaign(spec FleetCampaignSpec) *FleetCampaignResult {
	spec = spec.withDefaults()
	res := &FleetCampaignResult{Spec: spec, Arms: make([]FleetArmResult, len(spec.Arms))}
	tasks := make([]func(), len(spec.Arms))
	for i, arm := range spec.Arms {
		i, arm := i, arm
		tasks[i] = func() {
			cfg := spec.Base
			cfg.Policy = arm.Policy
			cfg.AutoScale = arm.AutoScale
			if arm.SpareFrac != 0 {
				cfg.SpareFrac = arm.SpareFrac
			}
			e := sim.NewEngine(cfg.Seed)
			res.Arms[i] = FleetArmResult{Name: arm.Name, R: fleet.New(e, cfg).Run()}
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
