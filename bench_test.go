// Benchmarks regenerating the paper's evaluation. Each benchmark runs the
// corresponding experiment at the paper's scale (NPB class C, 64 ranks on 8
// nodes + 1 spare) and reports the *simulated* durations as custom metrics —
// ns/op is wall time of the simulation and is not a result.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Figure-by-figure targets and the measured numbers are recorded in
// EXPERIMENTS.md; cmd/paperbench prints the same data as tables.
package ibmig_test

import (
	"fmt"
	"testing"

	"ibmig/internal/core"
	"ibmig/internal/exp"
	"ibmig/internal/npb"
)

var paper = exp.PaperScale

// reportPhases attaches one stacked bar's phase durations to the benchmark.
func reportPhases(b *testing.B, r exp.PhaseRow) {
	b.ReportMetric(r.Stall, "sim_stall_s")
	b.ReportMetric(r.Migrate, "sim_migrate_s")
	b.ReportMetric(r.Restart, "sim_restart_s")
	b.ReportMetric(r.Resume, "sim_resume_s")
	b.ReportMetric(r.Total(), "sim_total_s")
	b.ReportMetric(r.MovedMB, "moved_MB")
}

// BenchmarkFig4MigrationOverhead regenerates Fig. 4: one migration's
// four-phase decomposition per application.
func BenchmarkFig4MigrationOverhead(b *testing.B) {
	for _, k := range []npb.Kernel{npb.LU, npb.BT, npb.SP} {
		b.Run(string(k), func(b *testing.B) {
			var row exp.PhaseRow
			for i := 0; i < b.N; i++ {
				out := exp.RunMigration(exp.MigrationSpec{Kernel: k, Scale: paper})
				row = phaseRowOf(out)
			}
			reportPhases(b, row)
		})
	}
}

func phaseRowOf(out exp.MigrationOutcome) exp.PhaseRow {
	return exp.PhaseRowFromReport(out.Workload.Name(), out.Report)
}

// BenchmarkFig5AppOverhead regenerates Fig. 5: total execution time with and
// without one migration. This is the heaviest benchmark (full class C runs);
// -short skips it so the CI bench smoke stays fast.
func BenchmarkFig5AppOverhead(b *testing.B) {
	if testing.Short() {
		b.Skip("full class C end-to-end runs; skipped in -short")
	}
	for _, k := range []npb.Kernel{npb.LU, npb.BT, npb.SP} {
		b.Run(string(k), func(b *testing.B) {
			var base, migrated float64
			for i := 0; i < b.N; i++ {
				base = exp.RunBaseline(k, paper).Seconds()
				migrated = exp.RunMigration(exp.MigrationSpec{Kernel: k, Scale: paper, ToCompletion: true}).AppDuration.Seconds()
			}
			b.ReportMetric(base, "sim_base_s")
			b.ReportMetric(migrated, "sim_migrated_s")
			b.ReportMetric((migrated-base)/base*100, "overhead_pct")
		})
	}
}

// BenchmarkFig6Scalability regenerates Fig. 6: LU migration cost at 1/2/4/8
// processes per node on 8 nodes.
func BenchmarkFig6Scalability(b *testing.B) {
	nodes := paper.Ranks / paper.PPN
	for _, ppn := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ppn%d", ppn), func(b *testing.B) {
			sc := paper
			sc.Ranks = nodes * ppn
			sc.PPN = ppn
			var row exp.PhaseRow
			for i := 0; i < b.N; i++ {
				row = phaseRowOf(exp.RunMigration(exp.MigrationSpec{Kernel: npb.LU, Scale: sc}))
			}
			reportPhases(b, row)
		})
	}
}

// BenchmarkFig7MigrationVsCR regenerates Fig. 7: migration vs full CR cycles
// to ext3 and PVFS, reporting the headline speedups.
func BenchmarkFig7MigrationVsCR(b *testing.B) {
	for _, k := range []npb.Kernel{npb.LU, npb.BT, npb.SP} {
		b.Run(string(k), func(b *testing.B) {
			var g exp.Fig7Group
			for i := 0; i < b.N; i++ {
				mig, ext3, pvfs, w := exp.RunComparison(k, paper, core.Options{})
				g = exp.Fig7Group{
					App:       w.Name(),
					Migration: exp.PhaseRowFromReport("mig", mig),
					CRExt3:    exp.PhaseRowFromReport("ext3", ext3),
					CRPVFS:    exp.PhaseRowFromReport("pvfs", pvfs),
				}
			}
			b.ReportMetric(g.Migration.Total(), "sim_migration_s")
			b.ReportMetric(g.CRExt3.Total(), "sim_cr_ext3_s")
			b.ReportMetric(g.CRPVFS.Total(), "sim_cr_pvfs_s")
			b.ReportMetric(g.SpeedupExt3(), "speedup_ext3_x")
			b.ReportMetric(g.SpeedupPVFS(), "speedup_pvfs_x")
		})
	}
}

// BenchmarkTable1DataMovement regenerates Table I: data moved by one
// migration vs a whole-job checkpoint.
func BenchmarkTable1DataMovement(b *testing.B) {
	for _, k := range []npb.Kernel{npb.LU, npb.BT, npb.SP} {
		b.Run(string(k), func(b *testing.B) {
			var mig, crVol float64
			for i := 0; i < b.N; i++ {
				out := exp.RunMigration(exp.MigrationSpec{Kernel: k, Scale: paper})
				mig = float64(out.Report.BytesMoved) / (1 << 20)
				crVol = float64(out.Workload.TotalImageBytes()) / (1 << 20)
			}
			b.ReportMetric(mig, "migration_MB")
			b.ReportMetric(crVol, "cr_MB")
			b.ReportMetric(crVol/mig, "ratio_x")
		})
	}
}

// BenchmarkAblationBufferPool sweeps pool and chunk sizes (the paper's
// in-text finding: migration cost is insensitive because Phase 3 dominates).
func BenchmarkAblationBufferPool(b *testing.B) {
	for _, cfg := range []struct{ poolMB, chunkKB int64 }{
		{2, 1024}, {10, 256}, {10, 1024}, {10, 4096}, {40, 1024},
	} {
		b.Run(fmt.Sprintf("pool%dMB_chunk%dKB", cfg.poolMB, cfg.chunkKB), func(b *testing.B) {
			var row exp.PhaseRow
			for i := 0; i < b.N; i++ {
				row = phaseRowOf(exp.RunMigration(exp.MigrationSpec{Kernel: npb.LU, Scale: paper, Opts: core.Options{
					BufferPoolBytes: cfg.poolMB << 20,
					ChunkBytes:      cfg.chunkKB << 10,
				}}))
			}
			reportPhases(b, row)
		})
	}
}

// BenchmarkAblationMemoryRestart compares the paper's file-based restart
// with the future-work memory-based restart.
func BenchmarkAblationMemoryRestart(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    core.RestartMode
	}{{"file", core.RestartFile}, {"memory", core.RestartMemory}} {
		b.Run(mode.name, func(b *testing.B) {
			var row exp.PhaseRow
			for i := 0; i < b.N; i++ {
				row = phaseRowOf(exp.RunMigration(exp.MigrationSpec{Kernel: npb.LU, Scale: paper, Opts: core.Options{RestartMode: mode.m}}))
			}
			reportPhases(b, row)
		})
	}
}

// BenchmarkAblationTCPStaging compares the RDMA pull with the socket-staging
// transport the paper argues against.
func BenchmarkAblationTCPStaging(b *testing.B) {
	for _, tr := range []struct {
		name string
		t    core.Transport
	}{{"rdma", core.TransportRDMA}, {"socket", core.TransportSocket}} {
		b.Run(tr.name, func(b *testing.B) {
			var row exp.PhaseRow
			for i := 0; i < b.N; i++ {
				row = phaseRowOf(exp.RunMigration(exp.MigrationSpec{Kernel: npb.LU, Scale: paper, Opts: core.Options{Transport: tr.t}}))
			}
			reportPhases(b, row)
		})
	}
}

// BenchmarkExtensionInterference regenerates the shared-storage interference
// study: bystander PVFS throughput during migration vs during a CR
// checkpoint.
func BenchmarkExtensionInterference(b *testing.B) {
	var rows []exp.InterferenceRow
	for i := 0; i < b.N; i++ {
		rows = exp.AblationInterference(paper)
	}
	b.ReportMetric(rows[0].ThroughputMB, "bystander_idle_MBps")
	b.ReportMetric(rows[1].ThroughputMB, "bystander_during_migration_MBps")
	b.ReportMetric(rows[2].ThroughputMB, "bystander_during_cr_MBps")
}

// BenchmarkExtensionAggregation regenerates the node-level write-aggregation
// comparison for the CR baseline.
func BenchmarkExtensionAggregation(b *testing.B) {
	var rows []exp.AggRow
	for i := 0; i < b.N; i++ {
		rows = exp.AblationAggregation(paper)
	}
	for _, r := range rows {
		b.ReportMetric(r.CkptSec, "sim_"+sanitize(r.Label)+"_s")
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}
