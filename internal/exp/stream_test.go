package exp

import (
	"reflect"
	"sync"
	"testing"

	"ibmig/internal/core"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
)

// goldenRunStreamed is goldenRunWith(true) plus the full live-telemetry
// plane: a subscriber drained concurrently on another goroutine and a flight
// recorder, both attached before the engine starts. It exists to prove the
// streaming layer is as passive as the collector itself.
func goldenRunStreamed(ring int) (records int, hash uint64, totalNS int64, moved int64, streamed uint64, fr *obs.FlightRecorder) {
	sc := goldenScale
	s := newSession(npb.LU, sc, sc.Ranks, sc.PPN, 1, 0, core.Options{})
	rec := &sim.Recorder{}
	s.e.SetTracer(rec)
	col := obs.Enable(s.e)
	fr = obs.NewFlightRecorder(0)
	col.AttachFlight(fr)
	sub := col.Subscribe(ring)
	done := make(chan struct{})
	var n uint64
	go func() {
		defer close(done)
		buf := make([]obs.Event, 0, 256)
		for {
			buf = sub.Drain(buf[:0])
			n += uint64(len(buf))
			if len(buf) == 0 {
				if sub.Closed() {
					return
				}
				<-sub.Notify()
			}
		}
	}()
	s.drive(func(p *sim.Proc) {
		p.Sleep(s.triggerAt())
		s.fw.TriggerMigration(p, s.midNode()).Wait(p)
	})
	col.Finish(s.e.Now())
	col.Unsubscribe(sub)
	<-done
	rep := s.fw.Reports[len(s.fw.Reports)-1]
	return len(rec.Records), rec.Fingerprint(), int64(rep.Total()), rep.BytesMoved, n + sub.Dropped(), fr
}

// TestGoldenTraceStreamEnabled pins the central claim of the telemetry plane:
// with a live sink draining concurrently and a flight recorder attached, the
// golden scenario's event trace is bit-identical to the unobserved run.
func TestGoldenTraceStreamEnabled(t *testing.T) {
	records, hash, totalNS, moved, streamed, fr := goldenRunStreamed(1 << 14)
	if records != goldenRecords {
		t.Errorf("trace records = %d, want %d (streaming perturbed the simulation)", records, goldenRecords)
	}
	if hash != goldenHash {
		t.Errorf("trace hash = %#x, want %#x (streaming perturbed the simulation)", hash, goldenHash)
	}
	if totalNS != goldenTotalNS {
		t.Errorf("migration total = %dns, want %dns", totalNS, goldenTotalNS)
	}
	if moved != goldenMoved {
		t.Errorf("bytes moved = %d, want %d", moved, goldenMoved)
	}
	if streamed == 0 {
		t.Error("subscriber saw no events")
	}
	if len(fr.Actors()) == 0 || fr.Events() == 0 {
		t.Errorf("flight recorder empty: actors=%v events=%d", fr.Actors(), fr.Events())
	}
	if lines := fr.Strings(8); len(lines) == 0 {
		t.Error("flight recorder tail is empty")
	}
}

// TestSinkAttachDetachRace subscribes and unsubscribes from collectors while
// their engines are running, on several engines at once. Meaningful chiefly
// under -race; the fingerprints prove the chaos changed nothing simulated.
func TestSinkAttachDetachRace(t *testing.T) {
	old := Parallelism()
	defer SetParallelism(old)
	SetParallelism(4)

	const n = 4
	type fp struct {
		records        int
		hash           uint64
		totalNS, moved int64
	}
	got := make([]fp, n)
	tasks := make([]func(), n)
	for i := range tasks {
		i := i
		tasks[i] = func() {
			sc := goldenScale
			s := newSession(npb.LU, sc, sc.Ranks, sc.PPN, 1, 0, core.Options{})
			rec := &sim.Recorder{}
			s.e.SetTracer(rec)
			col := obs.Enable(s.e)

			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() { // churn subscribers for the whole run
				defer wg.Done()
				buf := make([]obs.Event, 0, 64)
				for {
					select {
					case <-stop:
						return
					default:
					}
					sub := col.Subscribe(64)
					buf = sub.Drain(buf[:0])
					col.Unsubscribe(sub)
					sub.Drain(buf[:0])
				}
			}()

			s.drive(func(p *sim.Proc) {
				p.Sleep(s.triggerAt())
				s.fw.TriggerMigration(p, s.midNode()).Wait(p)
			})
			col.Finish(s.e.Now())
			close(stop)
			wg.Wait()

			rep := s.fw.Reports[len(s.fw.Reports)-1]
			got[i] = fp{len(rec.Records), rec.Fingerprint(), int64(rep.Total()), rep.BytesMoved}
		}
	}
	RunParallel(tasks...)
	want := fp{goldenRecords, goldenHash, goldenTotalNS, goldenMoved}
	for i, g := range got {
		if g != want {
			t.Errorf("engine %d: fingerprint %+v, want %+v", i, g, want)
		}
	}
}

// TestRunMigrationStreamedMatchesObserved checks the condensed deployment
// shape: streaming delivers every published event (ring large enough → no
// drops) and leaves the simulated outcome identical to the observed run.
func TestRunMigrationStreamedMatchesObserved(t *testing.T) {
	sc := Scale{Class: npb.ClassS, Ranks: 8, PPN: 2, Seed: 5}
	obsOut := RunMigration(MigrationSpec{Kernel: npb.LU, Scale: sc, Observe: true})
	strOut := RunMigration(MigrationSpec{Kernel: npb.LU, Scale: sc, StreamRing: 1 << 16})
	col, stats := strOut.Collector, strOut.Stream
	if obsOut.Collector == nil || col == nil {
		t.Fatal("observed run returned no collector")
	}
	if obsOut.Stream != (StreamStats{}) {
		t.Fatalf("unstreamed run reported stream stats %+v", obsOut.Stream)
	}
	obsOut.Collector, strOut.Collector, strOut.Stream = nil, nil, StreamStats{}
	if !reflect.DeepEqual(obsOut, strOut) {
		t.Fatalf("streamed outcome diverged:\n  observed %+v\n  streamed %+v", obsOut, strOut)
	}
	if stats.Events == 0 {
		t.Fatal("streamed run delivered no events")
	}
	if stats.Dropped != 0 {
		t.Fatalf("oversized ring still dropped %d events", stats.Dropped)
	}
	if len(col.Spans()) == 0 {
		t.Fatal("collector empty after streamed run")
	}
}

// TestRunCampaignLiveEquivalence requires a campaign with a live update
// callback to produce a result deeply equal to one without, with per-arm
// updates that move forward in simulated time and end in a terminal Done
// update.
func TestRunCampaignLiveEquivalence(t *testing.T) {
	spec := quickCampaign(2)
	batch := RunCampaign(spec, nil)

	var mu sync.Mutex
	updates := map[string][]ArmUpdate{}
	live := RunCampaign(spec, func(u ArmUpdate) {
		mu.Lock()
		updates[u.Strategy] = append(updates[u.Strategy], u)
		mu.Unlock()
	})
	if !reflect.DeepEqual(batch, live) {
		t.Fatalf("live campaign diverged from batch:\n  batch %+v\n  live  %+v", batch, live)
	}
	for _, name := range live.Spec.Strategies {
		us := updates[name]
		if len(us) == 0 {
			t.Errorf("arm %q emitted no updates", name)
			continue
		}
		last := us[len(us)-1]
		if !last.Done {
			t.Errorf("arm %q final update not Done: %+v", name, last)
		}
		for i := 1; i < len(us); i++ {
			if us[i].SimNS < us[i-1].SimNS {
				t.Errorf("arm %q updates went backwards in sim time: %d then %d", name, us[i-1].SimNS, us[i].SimNS)
			}
		}
		final := arm(t, live, name)
		if last.Completed != final.Completed || last.JobLost != final.JobLost {
			t.Errorf("arm %q terminal update %+v disagrees with result %+v", name, last, final)
		}
	}
}
