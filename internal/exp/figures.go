package exp

import (
	"fmt"
	"strings"
	"time"

	"ibmig/internal/core"
	"ibmig/internal/cr"
	"ibmig/internal/ftmodel"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// PhaseRow is one stacked bar of Figs. 4, 6 and 7: a label plus the four
// phase durations in seconds.
type PhaseRow struct {
	Label   string
	Stall   float64
	Migrate float64 // "Checkpoint" for CR rows
	Restart float64
	Resume  float64
	// MovedMB is the process-image volume handled (Table I).
	MovedMB float64
}

// Total returns the bar height.
func (r PhaseRow) Total() float64 { return r.Stall + r.Migrate + r.Restart + r.Resume }

// PhaseRowFromReport extracts a PhaseRow from a phase report (exported for
// the repository-level benchmark harness).
func PhaseRowFromReport(label string, rep *metrics.Report) PhaseRow {
	return phaseRow(label, rep)
}

func phaseRow(label string, rep *metrics.Report) PhaseRow {
	return PhaseRow{
		Label:   label,
		Stall:   rep.Phase(metrics.PhaseStall).Seconds(),
		Migrate: rep.Phase(metrics.PhaseMigrate).Seconds() + rep.Phase(metrics.PhaseCkpt).Seconds(),
		Restart: rep.Phase(metrics.PhaseRestart).Seconds(),
		Resume:  rep.Phase(metrics.PhaseResume).Seconds(),
		MovedMB: float64(rep.BytesMoved) / (1 << 20),
	}
}

// kernelsFor returns the paper's three applications, constrained to rank
// counts each kernel supports.
func kernelsFor(sc Scale) []npb.Kernel {
	ks := []npb.Kernel{npb.LU}
	if q := isqrtOK(sc.Ranks); q {
		ks = append(ks, npb.BT, npb.SP)
	}
	return ks
}

func isqrtOK(n int) bool {
	for i := 1; i*i <= n; i++ {
		if i*i == n {
			return true
		}
	}
	return false
}

// Fig4 reproduces "Process Migration Overhead": one migration's four-phase
// decomposition for each application. The per-application runs are
// independent engines, so they fan out across Map, which keeps row order
// fixed.
func Fig4(sc Scale) []PhaseRow {
	ks := kernelsFor(sc)
	return Map(len(ks), func(i int) PhaseRow {
		out := RunMigration(MigrationSpec{Kernel: ks[i], Scale: sc})
		return phaseRow(fmt.Sprintf("%s.%c.%d", ks[i], sc.Class, sc.Ranks), out.Report)
	})
}

// Fig5Row is one pair of bars of "Application Execution Time with/without
// Migration".
type Fig5Row struct {
	Label       string
	BaseSec     float64
	MigratedSec float64
}

// OverheadPct is the relative execution-time increase caused by one
// migration (the paper reports 3.9% / 6.7% / 4.6%).
func (r Fig5Row) OverheadPct() float64 {
	return (r.MigratedSec - r.BaseSec) / r.BaseSec * 100
}

// Fig5 reproduces "Application Execution Time with/without Migration". The
// baseline and migrated runs of every application are all independent, so a
// parallel harness gets 2*len(kernels) runs to spread over cores — this is
// the heaviest figure (full-length class C runs). Run 2i is kernel i's
// baseline, run 2i+1 its migrated run.
func Fig5(sc Scale) []Fig5Row {
	ks := kernelsFor(sc)
	secs := Map(2*len(ks), func(j int) float64 {
		k := ks[j/2]
		if j%2 == 0 {
			return RunBaseline(k, sc).Seconds()
		}
		return RunMigration(MigrationSpec{Kernel: k, Scale: sc, ToCompletion: true}).AppDuration.Seconds()
	})
	rows := make([]Fig5Row, len(ks))
	for i, k := range ks {
		rows[i] = Fig5Row{
			Label:       fmt.Sprintf("%s.%c.%d", k, sc.Class, sc.Ranks),
			BaseSec:     secs[2*i],
			MigratedSec: secs[2*i+1],
		}
	}
	return rows
}

// Fig6 reproduces "Scalability of Job Migration Framework": LU on 8 nodes
// with 1, 2, 4 and 8 processes per node; one migration each.
func Fig6(sc Scale) []PhaseRow {
	ppns := []int{1, 2, 4, 8}
	nodes := sc.Ranks / sc.PPN
	return Map(len(ppns), func(i int) PhaseRow {
		s := sc
		s.Ranks = nodes * ppns[i]
		s.PPN = ppns[i]
		out := RunMigration(MigrationSpec{Kernel: npb.LU, Scale: s})
		return phaseRow(fmt.Sprintf("%d proc/node", ppns[i]), out.Report)
	})
}

// Fig7Group is one application's three stacks of "Comparing Job Migration
// with Checkpoint/Restart".
type Fig7Group struct {
	App       string
	Migration PhaseRow
	CRExt3    PhaseRow
	CRPVFS    PhaseRow
}

// SpeedupExt3 is the full-CR-cycle-to-ext3 time over the migration time
// (paper: 2.03x for LU.C.64).
func (g Fig7Group) SpeedupExt3() float64 { return g.CRExt3.Total() / g.Migration.Total() }

// SpeedupPVFS is the full-CR-cycle-to-PVFS time over the migration time
// (paper: 4.49x for LU.C.64).
func (g Fig7Group) SpeedupPVFS() float64 { return g.CRPVFS.Total() / g.Migration.Total() }

// Fig7 reproduces the migration-vs-CR comparison for every application.
func Fig7(sc Scale) []Fig7Group {
	ks := kernelsFor(sc)
	return Map(len(ks), func(i int) Fig7Group {
		mig, ext3, pvfs, w := RunComparison(ks[i], sc, core.Options{})
		return Fig7Group{
			App:       w.Name(),
			Migration: phaseRow("Migration", mig),
			CRExt3:    phaseRow("CR(ext3)", ext3),
			CRPVFS:    phaseRow("CR(PVFS)", pvfs),
		}
	})
}

// Table1Row is one line of Table I: data movement in MB.
type Table1Row struct {
	App         string
	MigrationMB float64
	CRMB        float64
}

// Table1 reproduces "Amount of Data Movement (MB)" from the Fig. 7 runs.
func Table1(groups []Fig7Group) []Table1Row {
	var rows []Table1Row
	for _, g := range groups {
		rows = append(rows, Table1Row{App: g.App, MigrationMB: g.Migration.MovedMB, CRMB: g.CRPVFS.MovedMB})
	}
	return rows
}

// PoolPoint is one configuration of the buffer-pool ablation.
type PoolPoint struct {
	PoolMB     int64
	ChunkKB    int64
	MigrateSec float64
	TotalSec   float64
}

// AblationPool reproduces the paper's in-text finding that "the
// process-migration overhead does not vary significantly as buffer pool size
// changes, because it is dominated by Phase 3".
func AblationPool(sc Scale) []PoolPoint {
	cfgs := []struct{ poolMB, chunkKB int64 }{
		{2, 1024}, {5, 1024}, {10, 256}, {10, 1024}, {10, 4096}, {20, 1024}, {40, 1024},
	}
	return Map(len(cfgs), func(i int) PoolPoint {
		cfg := cfgs[i]
		out := RunMigration(MigrationSpec{Kernel: npb.LU, Scale: sc, Opts: core.Options{
			BufferPoolBytes: cfg.poolMB << 20,
			ChunkBytes:      cfg.chunkKB << 10,
		}})
		return PoolPoint{
			PoolMB:     cfg.poolMB,
			ChunkKB:    cfg.chunkKB,
			MigrateSec: out.Report.Phase(metrics.PhaseMigrate).Seconds(),
			TotalSec:   out.Report.Total().Seconds(),
		}
	})
}

// AblationRestartMode compares the paper's file-based restart with the two
// future-work variants (memory-based, and on-the-fly pipelined) for every
// application.
func AblationRestartMode(sc Scale) []PhaseRow {
	ks := kernelsFor(sc)
	modes := []struct {
		mode core.RestartMode
		name string
	}{
		{core.RestartFile, "file-restart"},
		{core.RestartMemory, "memory-restart"},
		{core.RestartPipelined, "pipelined-restart"},
	}
	return Map(len(ks)*len(modes), func(i int) PhaseRow {
		k, m := ks[i/len(modes)], modes[i%len(modes)]
		out := RunMigration(MigrationSpec{Kernel: k, Scale: sc, Opts: core.Options{RestartMode: m.mode}})
		return phaseRow(fmt.Sprintf("%s %s", k, m.name), out.Report)
	})
}

// AblationTransport compares the RDMA pull design with the socket-staging
// baseline the paper argues against (section III-B).
func AblationTransport(sc Scale) []PhaseRow {
	arms := []struct {
		transport core.Transport
		name      string
	}{
		{core.TransportRDMA, "RDMA pull"},
		{core.TransportSocket, "socket staging"},
	}
	return Map(len(arms), func(i int) PhaseRow {
		out := RunMigration(MigrationSpec{Kernel: npb.LU, Scale: sc, Opts: core.Options{Transport: arms[i].transport}})
		return phaseRow(arms[i].name, out.Report)
	})
}

// ---------------------------------------------------------------------------
// Formatting
// ---------------------------------------------------------------------------

// FormatPhaseRows renders phase rows as a text table.
func FormatPhaseRows(title string, rows []PhaseRow) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			r.Label,
			fmt.Sprintf("%.3f", r.Stall),
			fmt.Sprintf("%.3f", r.Migrate),
			fmt.Sprintf("%.3f", r.Restart),
			fmt.Sprintf("%.3f", r.Resume),
			fmt.Sprintf("%.3f", r.Total()),
			fmt.Sprintf("%.1f", r.MovedMB),
		})
	}
	return title + "\n" + metrics.Table(
		[]string{"config", "stall(s)", "migrate(s)", "restart(s)", "resume(s)", "total(s)", "moved(MB)"}, tr)
}

// FormatFig5 renders the Fig. 5 rows.
func FormatFig5(rows []Fig5Row) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			r.Label,
			fmt.Sprintf("%.1f", r.BaseSec),
			fmt.Sprintf("%.1f", r.MigratedSec),
			fmt.Sprintf("%.1f%%", r.OverheadPct()),
		})
	}
	return "Fig. 5 — Application Execution Time with/without Migration\n" +
		metrics.Table([]string{"app", "no migration(s)", "1 migration(s)", "overhead"}, tr)
}

// FormatFig7 renders the Fig. 7 groups with speedups.
func FormatFig7(groups []Fig7Group) string {
	var b strings.Builder
	for _, g := range groups {
		b.WriteString(FormatPhaseRows("Fig. 7 — "+g.App, []PhaseRow{g.Migration, g.CRExt3, g.CRPVFS}))
		fmt.Fprintf(&b, "speedup vs CR(ext3): %.2fx   vs CR(PVFS): %.2fx\n\n", g.SpeedupExt3(), g.SpeedupPVFS())
	}
	return b.String()
}

// FormatTable1 renders Table I.
func FormatTable1(rows []Table1Row) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			r.App,
			fmt.Sprintf("%.1f", r.MigrationMB),
			fmt.Sprintf("%.1f", r.CRMB),
			fmt.Sprintf("%.1fx", r.CRMB/r.MigrationMB),
		})
	}
	return "Table I — Amount of Data Movement (MB)\n" +
		metrics.Table([]string{"app", "Job Migration", "CR", "ratio"}, tr)
}

// FormatPool renders the buffer-pool ablation.
func FormatPool(pts []PoolPoint) string {
	var tr [][]string
	for _, pt := range pts {
		tr = append(tr, []string{
			fmt.Sprintf("%d MB", pt.PoolMB),
			fmt.Sprintf("%d KB", pt.ChunkKB),
			fmt.Sprintf("%.3f", pt.MigrateSec),
			fmt.Sprintf("%.3f", pt.TotalSec),
		})
	}
	return "Ablation — buffer pool sizing (LU)\n" +
		metrics.Table([]string{"pool", "chunk", "phase2(s)", "total(s)"}, tr)
}

// IntervalRow is one line of the checkpoint-interval study (paper §VI:
// migration "prolongs the interval between full job-wide checkpoints").
type IntervalRow struct {
	Nodes      int
	Coverage   float64
	TauOptMin  float64 // optimal checkpoint interval, minutes
	Efficiency float64 // useful work / wall time at the optimum
	PerDay     float64 // checkpoints per day at the optimum
}

// IntervalStudy feeds the measured LU costs (migration cycle, CR(PVFS)
// checkpoint overhead and restart) into the Daly model with proactive
// coverage, across machine scales. NodeMTBF of 5 years and a 10-minute
// requeue delay are era-typical assumptions, documented in EXPERIMENTS.md.
func IntervalStudy(mig, crPVFS *metrics.Report) []IntervalRow {
	const nodeMTBF = 5 * 365 * 24 * time.Hour
	const requeue = 10 * time.Minute
	delta := time.Duration(crPVFS.Phase(metrics.PhaseStall) + crPVFS.Phase(metrics.PhaseCkpt) + crPVFS.Phase(metrics.PhaseResume))
	restart := time.Duration(crPVFS.Phase(metrics.PhaseRestart)) + requeue
	migCost := time.Duration(mig.Total())
	var rows []IntervalRow
	for _, nodes := range []int{8, 64, 512, 4096, 32768} {
		for _, cov := range []float64{0, 0.3, 0.7} {
			p := ftmodel.Params{
				Nodes:          nodes,
				NodeMTBF:       nodeMTBF,
				CheckpointCost: delta,
				RestartCost:    restart,
				MigrationCost:  migCost,
				Coverage:       cov,
			}
			tau := p.OptimalInterval()
			rows = append(rows, IntervalRow{
				Nodes:      nodes,
				Coverage:   cov,
				TauOptMin:  tau.Minutes(),
				Efficiency: p.Efficiency(),
				PerDay:     24 * 60 / tau.Minutes(),
			})
		}
	}
	return rows
}

// FormatInterval renders the interval study.
func FormatInterval(rows []IntervalRow) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{
			fmt.Sprintf("%d", r.Nodes),
			fmt.Sprintf("%.0f%%", r.Coverage*100),
			fmt.Sprintf("%.1f", r.TauOptMin),
			fmt.Sprintf("%.2f%%", r.Efficiency*100),
			fmt.Sprintf("%.1f", r.PerDay),
		})
	}
	return "Checkpoint-interval study (LU costs; node MTBF 5y; requeue 10min)\n" +
		metrics.Table([]string{"nodes", "predicted", "tau_opt(min)", "efficiency", "ckpts/day"}, tr)
}

// AggRow is one configuration of the write-aggregation ablation.
type AggRow struct {
	Label      string
	CkptSec    float64
	RestartSec float64
}

// AblationAggregation compares the interleaved CR checkpoint path with the
// node-level write-aggregation technique of the authors' companion work
// (refs [15][16] in the paper), on both storage targets.
func AblationAggregation(sc Scale) []AggRow {
	targets := []cr.Target{cr.Ext3, cr.PVFS}
	// Run 2t is target t without aggregation, run 2t+1 with it.
	return Map(2*len(targets), func(i int) AggRow {
		target, aggregate := targets[i/2], i%2 == 1
		s := newSession(npb.LU, sc, sc.Ranks, sc.PPN, 1, 4, core.Options{})
		var rep *metrics.Report
		s.drive(func(p *sim.Proc) {
			p.Sleep(s.triggerAt())
			runner := cr.NewRunner(s.c, s.fw.W, target, false)
			runner.Aggregate = aggregate
			rep = runner.FullCycle(p)
		})
		label := fmt.Sprintf("CR(%s)", target)
		if aggregate {
			label += " aggregated"
		}
		return AggRow{
			Label:      label,
			CkptSec:    rep.Phase(metrics.PhaseCkpt).Seconds(),
			RestartSec: rep.Phase(metrics.PhaseRestart).Seconds(),
		}
	})
}

// FormatAggregation renders the aggregation ablation.
func FormatAggregation(rows []AggRow) string {
	var tr [][]string
	for _, r := range rows {
		tr = append(tr, []string{r.Label, fmt.Sprintf("%.3f", r.CkptSec), fmt.Sprintf("%.3f", r.RestartSec)})
	}
	return "Ablation — node-level write aggregation for CR (LU)\n" +
		metrics.Table([]string{"config", "checkpoint(s)", "restart(s)"}, tr)
}

// InterferenceRow reports a bystander application's PVFS throughput while a
// fault-tolerance action runs.
type InterferenceRow struct {
	Phase        string
	ThroughputMB float64 // bystander MB/s achieved
}

// AblationInterference demonstrates the paper's shared-storage argument:
// "dumping huge amount of data to the shared file system ... competes with
// other applications for the I/O bandwidth, thus adversely affecting the
// performance of all applications. This problem is eradicated by Job
// Migration." A bystander application streams to PVFS continuously; its
// throughput is sampled while nothing happens, while a migration runs, and
// while a CR checkpoint to PVFS runs.
func AblationInterference(sc Scale) []InterferenceRow {
	s := newSession(npb.LU, sc, sc.Ranks, sc.PPN, 1, 4, core.Options{})

	// The bystander: a separate client (the login node) writing 4 MB
	// records to PVFS in a loop, accounting bytes per sample window.
	var bystanderBytes int64
	s.e.Spawn("exp.bystander", func(p *sim.Proc) {
		h := s.c.PVFS.Create(p, s.c.Login.Name, "bystander.dat")
		defer h.Close()
		var off int64
		for i := 0; ; i++ {
			h.WriteAt(p, off%(64<<20), payloadChunk(uint64(i)))
			off += 4 << 20
			bystanderBytes += 4 << 20
		}
	})
	// measure runs fn and returns the bystander's throughput over exactly
	// fn's duration, so the sample covers the fault-handling action whatever
	// its length at any experiment scale.
	measure := func(p *sim.Proc, fn func()) float64 {
		startBytes := bystanderBytes
		startAt := p.Now()
		fn()
		elapsed := p.Now().Sub(startAt)
		if elapsed <= 0 {
			return 0
		}
		return float64(bystanderBytes-startBytes) / (1 << 20) / elapsed.Seconds()
	}

	var rows []InterferenceRow
	s.drive(func(p *sim.Proc) {
		p.Sleep(s.triggerAt() / 2)
		base := measure(p, func() { p.Sleep(2e9) })
		rows = append(rows, InterferenceRow{Phase: "idle (baseline)", ThroughputMB: base})

		duringMig := measure(p, func() { s.fw.TriggerMigration(p, s.midNode()).Wait(p) })
		rows = append(rows, InterferenceRow{Phase: "during migration", ThroughputMB: duringMig})

		runner := cr.NewRunner(s.c, s.fw.W, cr.PVFS, false)
		duringCR := measure(p, func() { runner.Checkpoint(p) })
		rows = append(rows, InterferenceRow{Phase: "during CR(PVFS) checkpoint", ThroughputMB: duringCR})
	})
	return rows
}

// payloadChunk builds the bystander's 4 MB record.
func payloadChunk(seed uint64) payload.Buffer { return payload.Synth(seed, 0, 4<<20) }

// FormatInterference renders the interference study.
func FormatInterference(rows []InterferenceRow) string {
	var tr [][]string
	base := rows[0].ThroughputMB
	for _, r := range rows {
		tr = append(tr, []string{
			r.Phase,
			fmt.Sprintf("%.1f", r.ThroughputMB),
			fmt.Sprintf("%.0f%%", r.ThroughputMB/base*100),
		})
	}
	return "Bystander PVFS application throughput during fault handling\n" +
		metrics.Table([]string{"condition", "MB/s", "of baseline"}, tr)
}
