package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
)

func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 0, 200)
	for i := 200; i > 0; i-- {
		xs = append(xs, float64(i))
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Error("median of 19 samples (9 beyond) was not refused")
	}
	if v, err := percentile(xs[180:], 0.5); err != nil || v != 10 {
		t.Errorf("median of 1..20 = %v, %v; want 10 with 10 beyond", v, err)
	}
	if _, err := percentile(xs[1:], 0.95); err == nil {
		t.Error("p95 of 199 samples (9 beyond) was not refused")
	}
	if v, err := percentile(xs, 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if got := tailPercentile(250); got != 0.95 {
		t.Errorf("tailPercentile(250) = %v, want 0.95", got)
	}
}

func TestInputsStablePerSeed(t *testing.T) {
	for _, wl := range workloads {
		a := wl.gen(rand.New(rand.NewSource(7)), wl.paper, 40)
		b := wl.gen(rand.New(rand.NewSource(7)), wl.paper, 40)
		c := wl.gen(rand.New(rand.NewSource(8)), wl.paper, 40)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew different inputs twice", wl.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 drew the same inputs", wl.Name)
		}
	}
}

// Every block of 20 trigger instants puts one in each twentieth of the
// window.
func TestTriggerInstantsStratified(t *testing.T) {
	const n = 20
	fr := stratified(rand.New(rand.NewSource(3)), 2*n, 0.05, 0.10)
	for block := 0; block < 2; block++ {
		seen := map[int]bool{}
		for _, f := range fr[block*n : (block+1)*n] {
			seen[int((f-0.05)/0.05*n)] = true
		}
		if len(seen) != n {
			t.Errorf("block %d covers %d of %d strata", block, len(seen), n)
		}
	}
}

func TestQuickOpPerWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one simulation per workload")
	}
	for _, wl := range workloads {
		ref := wl.run(wl.quick, wl.ref(wl.quick), nil)
		if ref.Err != "" || ref.Print == 0 || ref.SimNS <= 0 {
			t.Fatalf("%s reference op: %+v", wl.Name, ref)
		}
		in := wl.gen(rand.New(rand.NewSource(1)), wl.quick, 1)[0]
		tr := newTracer()
		rec := timeOp(wl, wl.quick, in, tr, 0)
		if rec.Err != "" {
			t.Fatalf("%s op failed its output check: %s", wl.Name, rec.Err)
		}
		if wl.sameAsRef && rec.Print != ref.Print {
			t.Errorf("%s: op fingerprint %#x, reference %#x", wl.Name, rec.Print, ref.Print)
		}
		var self int64
		for _, v := range selfTimes(tr.spans) {
			self += v
		}
		if d := self - rec.WallNS; d > rec.WallNS/20 || -d > rec.WallNS/20 {
			t.Errorf("%s: span self times sum to %d ns, op took %d ns", wl.Name, self, rec.WallNS)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a
		{ID: 4, Parent: 3, Name: "c", Start: 50, End: 70}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 50, "a": 30, "b": 20, "c": 20}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

const cannedTraces = `File: ibmig-bench
Type: cpu
Duration: 2s, Total samples = 2s (100.00%)
-----------+-------------------------------------------------------
     1.50s   ibmig/internal/sim.eventHeap.Less
             container/heap.up
             ibmig/internal/sim.(*Engine).run
             main.main
-----------+-------------------------------------------------------
     200ms   runtime.mallocgc
             runtime.newobject
             ibmig/internal/payload.Synth (inline)
             ibmig/internal/mpi.(*Rank).Send
             ibmig/internal/core.Launch.Workload.App.Workload.luApp.func1.1
-----------+-------------------------------------------------------
     150ms   runtime.findRunnable
             runtime.schedule
             runtime.park_m
             runtime.mcall
-----------+-------------------------------------------------------
     100ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
             runtime.systemstack
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      50ms   syscall.Syscall
             os.(*File).Write
             main.main
-----------+-------------------------------------------------------
`

func TestParseTraces(t *testing.T) {
	got, err := parseTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 75, "payload": 10, bucketSched: 7.5, bucketGC: 5, bucketUnattributed: 2.5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("shares = %v, want %v", got, want)
	}
	if _, err := parseTraces(strings.NewReader("File: x\n")); err == nil {
		t.Error("a profile with no samples was not refused")
	}
}

// BENCHMARK.json must name exactly the workloads and metrics this program
// runs and prints.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer differs from the metrics the traced pass prints")
	}
}
