package npb

import (
	"fmt"
	"testing"
	"time"

	"ibmig/internal/sim"
)

// TestFTTracesPinned pins fault-tolerant BT, LU and SP runs trace record by
// trace record. Each runs with the runtime in fault-tolerant mode (every
// send synchronous, every failed send retried), loses one node's adapter
// for a millisecond while synchronous sends are on the wire, and goes
// through one suspend/resume cycle later on. The pin is the engine's event
// count and end time, the trace's record count and fingerprint, the
// messages abandoned to finished ranks, and the verification sums. A change
// to how the runtime drives these sends must leave every constant here as
// it is.
func TestFTTracesPinned(t *testing.T) {
	cases := []struct {
		k            Kernel
		ranks, nodes int
		breakAt      sim.Time // when n01's adapter fails: sends to and from it are on the wire
		events       uint64
		end          sim.Time
		records      int
		hash         uint64
		dropped      int64
		sums         uint64
	}{
		{LU, 8, 4, 20_011_000, 107976, 244648227, 264, 0xa0092b0c40b64bc3, 0, 0x844602b554e1d079},
		{BT, 9, 3, 20_210_000, 13139, 337042670, 370, 0x5c15b9ca7f203c1f, 0, 0x87b596c9d436bf3d},
		{SP, 16, 4, 45_403_000, 40298, 400777476, 1080, 0xe508000522b81ae, 0, 0xeb0a6f5bee2e4a86},
	}
	for _, tc := range cases {
		w := New(tc.k, ClassS, tc.ranks)
		t.Run(w.Name(), func(t *testing.T) {
			rec := &sim.Recorder{}
			res := NewResult(w.Ranks)
			e, fab, world := startWorkload(w, tc.nodes, res, true)
			e.SetTracer(rec)
			var end sim.Time
			e.Spawn("ctl", func(p *sim.Proc) {
				world.WaitReady(p)
				p.Sleep(tc.breakAt.Sub(p.Now()))
				h := fab.HCA("n01")
				h.Fail()
				p.Sleep(time.Millisecond)
				h.Recover()
				p.Sleep(w.EstimatedRuntime() / 3)
				s := world.BeginSuspend()
				s.WaitAllDrained(p)
				s.CompleteTeardown()
				s.WaitAllSuspended(p)
				p.Sleep(50 * time.Millisecond)
				s.Resume()
				s.WaitAllResumed(p)
				world.WaitDone(p)
				end = p.Now()
				e.Stop()
			})
			if err := e.Run(); err != nil {
				t.Fatal(err)
			}
			events := e.Events()
			e.Shutdown()
			for i, n := range res.IterDone {
				if n != w.Iterations || world.Rank(i).Suspensions != 1 {
					t.Fatalf("rank %d finished %d/%d iterations after %d suspensions, want 1",
						i, n, w.Iterations, world.Rank(i).Suspensions)
				}
			}
			sums := uint64(14695981039346656037)
			for _, s := range res.RankSums {
				sums = (sums ^ s) * fnvPrime
			}
			n, h := len(rec.Records), rec.Fingerprint()
			const f = "%d events to %d ns, %d records %#x, %d dropped, sums %#x"
			got := fmt.Sprintf(f, events, int64(end), n, h, world.FTDropped(), sums)
			want := fmt.Sprintf(f, tc.events, int64(tc.end), tc.records, tc.hash, tc.dropped, tc.sums)
			if got != want {
				t.Errorf("trace = %s, want %s", got, want)
			}
		})
	}
}
