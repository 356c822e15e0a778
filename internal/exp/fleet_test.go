package exp

import (
	"testing"
	"time"

	"ibmig/internal/fleet"
)

// goldenFleetSpec is small enough to run in tens of milliseconds yet drives
// every arm of the default campaign grid through failures, drains, repairs,
// and both queue disciplines.
func goldenFleetSpec() fleet.Config {
	return fleet.Config{
		Nodes:    48,
		NodeMTBF: 2 * 24 * time.Hour,
		Horizon:  7 * 24 * time.Hour,
		Jobs:     40,
		Seed:     7,
	}
}

// goldenFleetPrints pins the per-arm fleet fingerprints. Like goldenHash for
// the migration trace, these must never drift silently: a scheduler or
// lifecycle refactor that reorders placements or changes economics moves
// them, and must re-record the constants in the same commit with a reason.
var goldenFleetPrints = map[string]string{
	"fifo":          "a2535428cdefa4bb",
	"backfill":      "410b2b47b32a332b",
	"fifo+auto":     "9ce89f4c2ff1e8d8",
	"backfill+auto": "b1fcc5883a0a7f1b",
}

// TestGoldenFleetFingerprint runs the pinned campaign at parallelism 1 and 8
// and asserts every arm matches its recorded fingerprint — slot-stability at
// any fan-out plus drift protection in one.
func TestGoldenFleetFingerprint(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	for _, par := range []int{1, 8} {
		SetParallelism(par)
		res := RunFleetCampaign(goldenFleetSpec())
		if len(res.Arms) != len(goldenFleetPrints) {
			t.Fatalf("parallelism %d: %d arms, want %d", par, len(res.Arms), len(goldenFleetPrints))
		}
		for _, arm := range res.Arms {
			want, ok := goldenFleetPrints[arm.Name]
			if !ok {
				t.Fatalf("parallelism %d: unexpected arm %q", par, arm.Name)
			}
			if arm.R.Fingerprint != want {
				t.Errorf("parallelism %d: arm %q fingerprint %s, want %s",
					par, arm.Name, arm.R.Fingerprint, want)
			}
		}
	}
}

// TestFleetCampaignScaleDeterminism is the acceptance-criteria campaign:
// 1,000 nodes, 200 jobs, 30 simulated days, bit-identical economics at
// parallelism 1 and 8. Skipped in -short (it runs a few seconds).
func TestFleetCampaignScaleDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("1k-node campaign skipped in -short mode")
	}
	spec := fleet.Config{
		Nodes:    1000,
		RackSize: 10,
		NodeMTBF: 4 * 24 * time.Hour,
		Horizon:  30 * 24 * time.Hour,
		Jobs:     200,
		MaxWidth: 48,
		MeanWork: 36 * time.Hour,
		Seed:     11,
	}
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(1)
	serial := RunFleetCampaign(spec)
	SetParallelism(8)
	fanned := RunFleetCampaign(spec)
	for i := range serial.Arms {
		a, b := serial.Arms[i], fanned.Arms[i]
		if a.Name != b.Name {
			t.Fatalf("arm %d renamed across parallelism: %q vs %q", i, a.Name, b.Name)
		}
		if *a.R != *b.R {
			t.Errorf("arm %q: economics differ across parallelism:\n  par1: %+v\n  par8: %+v", a.Name, a.R, b.R)
		}
		if a.R.JobsCompleted == 0 || a.R.Interrupts == 0 {
			t.Errorf("arm %q: degenerate campaign (completed %d, interrupts %d)", a.Name, a.R.JobsCompleted, a.R.Interrupts)
		}
	}
}

func TestFormatFleetTable(t *testing.T) {
	res := RunFleetCampaign(goldenFleetSpec())
	out := FormatFleet(res)
	for _, arm := range []string{"fifo", "backfill", "fifo+auto", "backfill+auto"} {
		if !containsLine(out, arm) {
			t.Errorf("table missing arm %q:\n%s", arm, out)
		}
	}
}

func containsLine(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
