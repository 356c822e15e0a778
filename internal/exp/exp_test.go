package exp

import (
	"strings"
	"testing"

	"ibmig/internal/core"
	"ibmig/internal/npb"
)

// tiny is an even smaller scale than QuickScale, for unit tests. It keeps
// the paper's 8-node / 4-PVFS-server ratio so storage contention shapes
// survive the downscaling.
var tiny = Scale{Class: npb.ClassS, Ranks: 16, PPN: 2, Seed: 7}

func TestRunMigrationProducesFourPhases(t *testing.T) {
	out := RunMigration(MigrationSpec{Kernel: npb.LU, Scale: tiny})
	if out.Report == nil {
		t.Fatal("no migration report")
	}
	row := phaseRow("x", out.Report)
	if row.Stall <= 0 || row.Migrate <= 0 || row.Restart <= 0 || row.Resume <= 0 {
		t.Fatalf("phases incomplete: %+v", row)
	}
}

func TestFig4ShapeHolds(t *testing.T) {
	rows := Fig4(tiny)
	if len(rows) != 3 {
		t.Fatalf("apps = %d, want 3 (LU, BT, SP)", len(rows))
	}
	for _, r := range rows {
		// Paper: Phase 1 is "very swift" (the cheapest); Phase 3 dominates
		// Phase 2 under the file-based restart scheme.
		if r.Stall >= r.Migrate || r.Stall >= r.Restart {
			t.Errorf("%s: stall %.3fs is not the cheapest phase", r.Label, r.Stall)
		}
		if r.Restart <= r.Migrate {
			t.Errorf("%s: restart %.3fs does not dominate migrate %.3fs", r.Label, r.Restart, r.Migrate)
		}
	}
}

func TestFig5OverheadIsSmallAndPositive(t *testing.T) {
	if testing.Short() {
		t.Skip("class A end-to-end runs dominate the package's test time; skipped in -short")
	}
	// The "marginal overhead" claim needs a run long enough to amortize the
	// ~1s migration cost, so this test uses class A (tens of simulated
	// seconds) rather than the toy class S.
	rows := Fig5(Scale{Class: npb.ClassA, Ranks: 16, PPN: 4, Seed: 7})
	for _, r := range rows {
		pct := r.OverheadPct()
		if pct <= 0 {
			t.Errorf("%s: migration overhead %.2f%% not positive", r.Label, pct)
		}
		if pct > 25 {
			t.Errorf("%s: migration overhead %.2f%% implausibly large", r.Label, pct)
		}
	}
}

func TestFig6RestartGrowsWithPPN(t *testing.T) {
	rows := Fig6(tiny) // 4 nodes; ppn 1..8
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Restart <= rows[i-1].Restart {
			t.Errorf("restart did not grow: %v then %v", rows[i-1], rows[i])
		}
		if rows[i].MovedMB <= rows[i-1].MovedMB {
			t.Errorf("moved volume did not grow with ppn")
		}
	}
	// Migration phase stays low relative to restart at every scale.
	for _, r := range rows {
		if r.Migrate >= r.Restart {
			t.Errorf("%s: phase2 (%.3f) not below phase3 (%.3f)", r.Label, r.Migrate, r.Restart)
		}
	}
}

func TestFig7WhoWinsAndByHowMuch(t *testing.T) {
	groups := Fig7(tiny)
	if len(groups) != 3 {
		t.Fatalf("groups = %d", len(groups))
	}
	for _, g := range groups {
		if g.SpeedupExt3() <= 1 {
			t.Errorf("%s: migration not faster than CR(ext3): %.2fx", g.App, g.SpeedupExt3())
		}
		if g.SpeedupPVFS() <= g.SpeedupExt3() {
			t.Errorf("%s: PVFS speedup (%.2fx) should exceed ext3 speedup (%.2fx)", g.App, g.SpeedupPVFS(), g.SpeedupExt3())
		}
	}
}

func TestTable1RatioMatchesRanksPerNode(t *testing.T) {
	groups := Fig7(tiny)
	rows := Table1(groups)
	want := float64(tiny.Ranks) / float64(tiny.PPN) // nodes
	for _, r := range rows {
		ratio := r.CRMB / r.MigrationMB
		if ratio < want*0.95 || ratio > want*1.05 {
			t.Errorf("%s: CR/migration volume ratio = %.2f, want ~%.0f", r.App, ratio, want)
		}
	}
}

func TestAblationPoolInsensitive(t *testing.T) {
	pts := AblationPool(tiny)
	var minT, maxT float64
	for i, pt := range pts {
		if i == 0 || pt.TotalSec < minT {
			minT = pt.TotalSec
		}
		if pt.TotalSec > maxT {
			maxT = pt.TotalSec
		}
	}
	// Paper: total migration cost "does not vary significantly" with pool
	// size because Phase 3 dominates.
	if (maxT-minT)/minT > 0.25 {
		t.Fatalf("total migration cost varies %.0f%% across pool configs", (maxT-minT)/minT*100)
	}
}

func TestAblationMemoryRestartRemovesPhase3(t *testing.T) {
	rows := AblationRestartMode(tiny)
	for i := 0; i < len(rows); i += 3 {
		file, mem, pipe := rows[i], rows[i+1], rows[i+2]
		if mem.Restart >= file.Restart/2 {
			t.Errorf("%s: memory restart %.3fs not well below file restart %.3fs", mem.Label, mem.Restart, file.Restart)
		}
		if pipe.Total() > mem.Total()+0.001 {
			t.Errorf("%s: pipelined total %.3fs exceeds memory total %.3fs", pipe.Label, pipe.Total(), mem.Total())
		}
	}
}

func TestIntervalStudyShape(t *testing.T) {
	mig, _, pvfs, _ := RunComparison(npb.LU, tiny, core.Options{})
	rows := IntervalStudy(mig, pvfs)
	if len(rows) != 15 {
		t.Fatalf("rows = %d", len(rows))
	}
	byKey := map[[2]int]IntervalRow{}
	for _, r := range rows {
		byKey[[2]int{r.Nodes, int(r.Coverage * 100)}] = r
	}
	// Coverage prolongs the interval and improves efficiency at every scale.
	for _, nodes := range []int{8, 64, 512, 4096, 32768} {
		r0, r70 := byKey[[2]int{nodes, 0}], byKey[[2]int{nodes, 70}]
		if r70.TauOptMin <= r0.TauOptMin {
			t.Errorf("%d nodes: coverage did not prolong the interval (%.1f vs %.1f min)", nodes, r70.TauOptMin, r0.TauOptMin)
		}
		if r70.Efficiency < r0.Efficiency {
			t.Errorf("%d nodes: coverage hurt efficiency", nodes)
		}
	}
	// Bigger machines need more frequent checkpoints.
	if byKey[[2]int{32768, 0}].TauOptMin >= byKey[[2]int{8, 0}].TauOptMin {
		t.Error("interval did not shrink with machine size")
	}
}

func TestAblationSocketSlower(t *testing.T) {
	rows := AblationTransport(tiny)
	if rows[1].Migrate <= rows[0].Migrate {
		t.Fatalf("socket staging (%.3fs) not slower than RDMA (%.3fs)", rows[1].Migrate, rows[0].Migrate)
	}
}

func TestFormatters(t *testing.T) {
	rows := Fig4(tiny)
	s := FormatPhaseRows("Fig. 4", rows)
	if !strings.Contains(s, "LU") || !strings.Contains(s, "stall(s)") {
		t.Fatalf("unexpected table output:\n%s", s)
	}
	if out := FormatTable1(Table1(Fig7(tiny))); !strings.Contains(out, "Table I") {
		t.Fatalf("table1 output:\n%s", out)
	}
}

func TestDeterministicExperiments(t *testing.T) {
	a := RunMigration(MigrationSpec{Kernel: npb.LU, Scale: tiny})
	b := RunMigration(MigrationSpec{Kernel: npb.LU, Scale: tiny})
	if a.Report.Total() != b.Report.Total() || a.Report.BytesMoved != b.Report.BytesMoved {
		t.Fatal("experiment not reproducible")
	}
}

func TestInterferenceOnlyFromCR(t *testing.T) {
	rows := AblationInterference(tiny)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	base, mig, crRow := rows[0], rows[1], rows[2]
	if base.ThroughputMB <= 0 {
		t.Fatal("bystander made no progress at baseline")
	}
	// Migration must leave the shared file system essentially untouched...
	if mig.ThroughputMB < base.ThroughputMB*0.9 {
		t.Errorf("migration disturbed the bystander: %.1f vs %.1f MB/s", mig.ThroughputMB, base.ThroughputMB)
	}
	// ...while a CR checkpoint to PVFS visibly starves it.
	if crRow.ThroughputMB > base.ThroughputMB*0.7 {
		t.Errorf("CR checkpoint did not contend: %.1f vs %.1f MB/s", crRow.ThroughputMB, base.ThroughputMB)
	}
}
