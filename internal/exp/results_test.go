package exp

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"strings"
	"sync"
	"testing"

	"ibmig/internal/npb"
)

// TestPublishedResults pins every simulated number the repository publishes
// in testdata/results.json: EXPERIMENTS.md's Fig. 4–7 and Table I at paper
// scale, the observed-migration digest, the fleet economics arms and the two
// strategy campaigns' robustness arms. Each value is keyed by table, row and
// column and checked in its own subtest, so a moved number fails a test that
// names its cell. Durations are integer nanoseconds and counts integers;
// ratios stay floats, compared through their shortest round-trip encoding,
// so every comparison is exact.
//
// After an intended change to a simulated result, rewrite the file and
// review its diff:
//
//	go test ./internal/exp -run TestPublishedResults -update
var update = flag.Bool("update", false, "rewrite testdata/results.json from the current code")

const resultsFile = "testdata/results.json"

// results is table -> row -> column -> value, each value in canonical JSON.
type results map[string]map[string]map[string]json.RawMessage

// addCell records one value of a table.
type addCell func(row, col string, v any)

// resultTable computes one table of results.json. Slow tables (the
// paper-scale strategy campaigns) are recomputed only under -update; CI
// rewrites the file and fails on a diff.
type resultTable struct {
	name  string
	slow  bool
	cells func(add addCell)
}

// ns converts seconds reported by the figure harness back to the integer
// nanoseconds they were derived from (exact for any duration below 2^53 ns).
func ns(sec float64) int64 { return int64(math.Round(sec * 1e9)) }

// usNS converts a microsecond statistic (a histogram quantile) to integer
// nanoseconds.
func usNS(us float64) int64 { return int64(math.Round(us * 1e3)) }

// hoursNS converts an hour-valued fleet statistic to integer nanoseconds.
func hoursNS(h float64) int64 { return int64(math.Round(h * 3600e9)) }

func addPhases(add addCell, row string, r PhaseRow) {
	add(row, "stall_ns", ns(r.Stall))
	add(row, "migrate_ns", ns(r.Migrate))
	add(row, "restart_ns", ns(r.Restart))
	add(row, "resume_ns", ns(r.Resume))
	add(row, "moved_bytes", int64(math.Round(r.MovedMB*(1<<20))))
}

// paperFig7 is shared by the fig7 and table1 tables: Table I is derived from
// the Fig. 7 runs, as in paperbench.
var paperFig7 = sync.OnceValue(func() []Fig7Group { return Fig7(PaperScale) })

func campaignCells(failures int) func(add addCell) {
	return func(add addCell) {
		cr := RunCampaign(CampaignSpec{Kernel: npb.LU, Scale: PaperScale, Failures: failures}, nil)
		for _, r := range cr.Results {
			add(r.Strategy, "completed", r.Completed)
			add(r.Strategy, "goodput_pct", r.GoodputPct)
			add(r.Strategy, "mttr_ns", r.MTTRNS)
			add(r.Strategy, "rework_ns", r.ReworkNS)
			add(r.Strategy, "node_seconds_lost", r.NodeSecondsLost)
			add(r.Strategy, "migrations", r.Migrations)
			add(r.Strategy, "restarts", r.ReactiveRestarts)
			add(r.Strategy, "replica_restores", r.ReplicaRestores)
		}
	}
}

var publishedTables = []resultTable{
	{name: "fig4", cells: func(add addCell) {
		for _, r := range Fig4(PaperScale) {
			addPhases(add, r.Label, r)
		}
	}},
	{name: "fig5", cells: func(add addCell) {
		for _, r := range Fig5(PaperScale) {
			add(r.Label, "base_ns", ns(r.BaseSec))
			add(r.Label, "migrated_ns", ns(r.MigratedSec))
		}
	}},
	{name: "fig6", cells: func(add addCell) {
		for _, r := range Fig6(PaperScale) {
			perNode, _, _ := strings.Cut(r.Label, " ")
			addPhases(add, "ppn"+perNode, r)
		}
	}},
	{name: "fig7", cells: func(add addCell) {
		for _, g := range paperFig7() {
			addPhases(add, g.App+":migration", g.Migration)
			addPhases(add, g.App+":cr_ext3", g.CRExt3)
			addPhases(add, g.App+":cr_pvfs", g.CRPVFS)
		}
	}},
	{name: "table1", cells: func(add addCell) {
		for _, r := range Table1(paperFig7()) {
			add(r.App, "migration_bytes", int64(math.Round(r.MigrationMB*(1<<20))))
			add(r.App, "cr_bytes", int64(math.Round(r.CRMB*(1<<20))))
		}
	}},
	{name: "obs", cells: func(add addCell) {
		out := RunMigration(MigrationSpec{Kernel: npb.LU, Scale: PaperScale, Observe: true})
		col, row := out.Collector, out.Workload.Name()
		add(row, "events", out.Events)
		h := col.Histogram("ib.rdma_read_us")
		add(row, "rdma_chunks", h.Count())
		add(row, "rdma_chunk_p50_ns", usNS(h.Quantile(0.50)))
		add(row, "rdma_chunk_p99_ns", usNS(h.Quantile(0.99)))
		add(row, "agg_wait_p99_ns", usNS(col.Histogram("core.agg_wait_us").Quantile(0.99)))
		add(row, "ftb_delivery_p50_ns", usNS(col.Histogram("ftb.delivery_us").Quantile(0.50)))
		add(row, "spans", len(col.Spans()))
		link, busy := col.BusiestTrack("ib.")
		add(row, "peak_link", link)
		add(row, "peak_link_busy_frac", busy)
	}},
	{name: "fleet", cells: func(add addCell) {
		res := RunFleetCampaign(FleetEconomics(PaperScale.Seed, false))
		for _, arm := range res.Arms {
			r, row := arm.R, arm.Name
			add(row, "jobs_total", r.JobsTotal)
			add(row, "jobs_completed", r.JobsCompleted)
			add(row, "jobs_rejected", r.JobsRejected)
			add(row, "jobs_cut", r.JobsCut)
			add(row, "goodput_pct", r.GoodputPct)
			add(row, "node_hours_lost", r.NodeHoursLost)
			add(row, "ckpt_nh", r.CkptNH)
			add(row, "rework_nh", r.ReworkNH)
			add(row, "migr_nh", r.MigrNH)
			add(row, "restart_nh", r.RestartNH)
			add(row, "stall_nh", r.StallNH)
			add(row, "idle_nh", r.IdleNH)
			add(row, "spare_nh", r.SpareNH)
			add(row, "down_nh", r.DownNH)
			add(row, "interrupts", r.Interrupts)
			add(row, "drains", r.Drains)
			add(row, "mtti_ns", hoursNS(r.MTTIHours))
			add(row, "mttr_ns", hoursNS(r.MTTRHours))
			add(row, "wait_mean_ns", hoursNS(r.WaitMeanH))
			add(row, "wait_p95_ns", hoursNS(r.WaitP95H))
			add(row, "fingerprint", r.Fingerprint)
		}
	}},
	{name: "robustness_one_predicted", slow: true, cells: campaignCells(1)},
	{name: "robustness_three_burst", slow: true, cells: campaignCells(3)},
}

// cell is one computed value, in the order its table produced it.
type cell struct {
	row, col string
	val      json.RawMessage
}

func TestPublishedResults(t *testing.T) {
	if raceEnabled {
		t.Skip("paper-scale runs are too slow under -race; the quick-scale tests race the same paths")
	}
	want := results{}
	data, err := os.ReadFile(resultsFile)
	if err == nil {
		err = json.Unmarshal(data, &want)
	}
	if err != nil && !*update {
		t.Fatalf("%s: %v (rerun with -update to create it)", resultsFile, err)
	}
	known := map[string]bool{}
	for _, tab := range publishedTables {
		known[tab.name] = true
	}
	for name := range want {
		if !known[name] {
			t.Errorf("%s has table %q that no test computes", resultsFile, name)
			delete(want, name)
		}
	}

	var mu sync.Mutex // guards want under -update, where tables replace their entries
	if *update {
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			data, err := json.MarshalIndent(want, "", "  ")
			if err == nil {
				err = os.WriteFile(resultsFile, append(data, '\n'), 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		})
	}

	for _, tab := range publishedTables {
		t.Run(tab.name, func(t *testing.T) {
			if tab.slow && !*update {
				t.Skip("paper-scale strategy campaigns are recomputed only under -update")
			}
			t.Parallel()
			var cells []cell
			tab.cells(func(row, col string, v any) {
				raw, err := json.Marshal(v)
				if err != nil {
					t.Fatalf("%s/%s: %v", row, col, err)
				}
				cells = append(cells, cell{row, col, raw})
			})
			if *update {
				rows := map[string]map[string]json.RawMessage{}
				for _, c := range cells {
					if rows[c.row] == nil {
						rows[c.row] = map[string]json.RawMessage{}
					}
					rows[c.row][c.col] = c.val
				}
				mu.Lock()
				want[tab.name] = rows
				mu.Unlock()
				return
			}
			checkCells(t, want[tab.name], cells)
		})
	}
}

// checkCells compares one table's computed cells with the pinned ones, in a
// table/row/column subtest per cell, and reports pinned cells nothing
// computed.
func checkCells(t *testing.T, pinned map[string]map[string]json.RawMessage, cells []cell) {
	seen := map[[2]string]bool{}
	for _, c := range cells {
		seen[[2]string{c.row, c.col}] = true
		t.Run(c.row+"/"+c.col, func(t *testing.T) {
			want, ok := pinned[c.row][c.col]
			if !ok {
				t.Fatalf("got %s, but %s has no such cell (rerun with -update)", c.val, resultsFile)
			}
			if !bytes.Equal(c.val, want) {
				t.Errorf("got %s, %s pins %s", c.val, resultsFile, want)
			}
		})
	}
	for row, cols := range pinned {
		for col := range cols {
			if !seen[[2]string{row, col}] {
				t.Errorf("%s pins %s/%s, which is no longer computed", resultsFile, row, col)
			}
		}
	}
}
