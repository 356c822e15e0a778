package exp

import (
	"fmt"
	"time"

	"ibmig/internal/metrics"
	"ibmig/internal/npb"
)

// ScaleSweep pushes the migration experiment past the paper's 64-rank
// testbed toward cluster scale: one LU migration per rank count, keeping the
// paper's processes-per-node ratio, with the phase breakdown, data volume,
// and simulator throughput recorded per point. "Checkpointing vs. Migration
// for Post-Petascale Machines" poses exactly this question — how migration
// cost scales to hundreds and thousands of ranks — and the parallel runner
// plus the kernel hot-path work make the answer cheap to regenerate.

// SweepPoint is one rank count of the scale sweep.
type SweepPoint struct {
	Ranks int
	Nodes int
	PPN   int
	Row   PhaseRow // phase breakdown of the one migration

	// Simulator-performance telemetry for this point (host-side; excluded
	// from determinism comparisons).
	Events uint64  // kernel events dispatched
	WallMS float64 // host wall-clock for the run
}

// DefaultSweepRanks is the cluster-scale rank ladder: the paper's 64 up to
// 2048 ranks (256 nodes x 8 ppn at paper PPN). The top points are feasible
// because the data plane moves extent descriptors, not bytes: a 2048-rank
// migration touches multi-GB simulated images without materializing them.
var DefaultSweepRanks = []int{64, 128, 256, 512, 1024, 2048}

// QuickSweepRanks is a reduced ladder for CI and -scale quick.
var QuickSweepRanks = []int{16, 32, 64, 128}

// ScaleSweep runs one migration at each rank count (LU, class/PPN/seed from
// sc), fanning the runs across RunParallel. A nil ranks slice selects
// DefaultSweepRanks. Results are index-stable: points come back in ranks
// order regardless of completion order, and every simulated number is
// bit-identical to a serial run.
func ScaleSweep(sc Scale, ranks []int) []SweepPoint {
	if ranks == nil {
		ranks = DefaultSweepRanks
	}
	pts := make([]SweepPoint, len(ranks))
	tasks := make([]func(), len(ranks))
	for i, r := range ranks {
		i, r := i, r
		if r%sc.PPN != 0 {
			panic(fmt.Sprintf("exp: sweep ranks %d not divisible by ppn %d", r, sc.PPN))
		}
		tasks[i] = func() {
			s := Scale{Class: sc.Class, Ranks: r, PPN: sc.PPN, Seed: sc.Seed}
			start := time.Now()
			out := RunMigration(MigrationSpec{Kernel: npb.LU, Scale: s})
			pts[i] = SweepPoint{
				Ranks:  r,
				Nodes:  r / sc.PPN,
				PPN:    sc.PPN,
				Row:    phaseRow(fmt.Sprintf("LU.%c.%d", sc.Class, r), out.Report),
				Events: out.Events,
				WallMS: float64(time.Since(start).Milliseconds()),
			}
		}
	}
	RunParallel(tasks...)
	return pts
}

// FormatSweep renders the sweep as a text table, with per-point simulator
// throughput so the kernel's events/sec trajectory is visible next to the
// science.
func FormatSweep(title string, pts []SweepPoint) string {
	var tr [][]string
	for _, pt := range pts {
		evps := 0.0
		if pt.WallMS > 0 {
			evps = float64(pt.Events) / (pt.WallMS / 1000)
		}
		tr = append(tr, []string{
			pt.Row.Label,
			fmt.Sprintf("%dx%d", pt.Nodes, pt.PPN),
			fmt.Sprintf("%.3f", pt.Row.Stall),
			fmt.Sprintf("%.3f", pt.Row.Migrate),
			fmt.Sprintf("%.3f", pt.Row.Restart),
			fmt.Sprintf("%.3f", pt.Row.Resume),
			fmt.Sprintf("%.3f", pt.Row.Total()),
			fmt.Sprintf("%.1f", pt.Row.MovedMB),
			fmt.Sprintf("%d", pt.Events),
			fmt.Sprintf("%.0f", pt.WallMS),
			fmt.Sprintf("%.2f", evps/1e6),
		})
	}
	return title + "\n" + metrics.Table(
		[]string{"config", "nodes", "stall(s)", "migrate(s)", "restart(s)", "resume(s)", "total(s)", "moved(MB)", "events", "wall(ms)", "Mev/s"}, tr)
}
