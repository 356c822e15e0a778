package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestOnlyRefreshRestampsItsSection re-measures one section of an existing
// baseline file and requires that section, and only it, to carry a fresh
// host stamp.
func TestOnlyRefreshRestampsItsSection(t *testing.T) {
	old := Stamp{MeasuredAt: "2000-01-01T00:00:00Z", NumCPU: 999, GoMaxProcs: 999, Scale: "paper"}
	var b Baseline
	b.GeneratedBy = "cmd/benchbaseline"
	b.SweepScaling.Stamp = old
	b.PartitionedScaling.Stamp = old
	b.MemoryFootprint.Stamp = old
	b.Telemetry.Stamp = old
	path := filepath.Join(t.TempDir(), "BENCH_sim.json")
	if err := writeBaseline(path, &b); err != nil {
		t.Fatal(err)
	}

	sec, ok := sectionByName("telemetry")
	if !ok {
		t.Fatal("no telemetry section")
	}
	if _, err := refresh(path, sec, newConfig(true, 1)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got Baseline
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}

	ts := got.Telemetry.Stamp
	if ts.MeasuredAt == old.MeasuredAt || ts.NumCPU != runtime.NumCPU() ||
		ts.GoMaxProcs != runtime.GOMAXPROCS(0) || ts.Scale != "quick" {
		t.Errorf("refreshed telemetry stamp %+v, want now on this host at quick scale", ts)
	}
	if got.Telemetry.SinkEvents == 0 {
		t.Error("refreshed telemetry section carries no measurement")
	}
	for name, s := range map[string]Stamp{
		"sweep_scaling":       got.SweepScaling.Stamp,
		"partitioned_scaling": got.PartitionedScaling.Stamp,
		"memory_footprint":    got.MemoryFootprint.Stamp,
	} {
		if s != old {
			t.Errorf("%s stamp %+v changed by a telemetry refresh", name, s)
		}
	}
}
