package mpi

import (
	"fmt"
	"testing"
	"time"
	"unsafe"

	"ibmig/internal/calib"
	"ibmig/internal/ib"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// newTestWorld builds an engine, fabric, and world with ranks spread over
// nodes round-robin (rank i on node i%nodes — blocks of ppn would also work;
// tests only need a consistent placement).
func newTestWorld(nodes, ranks int) (*sim.Engine, *ib.Fabric, *World) {
	e := sim.NewEngine(42)
	fab := ib.NewFabric(e, ib.Config{})
	var names []string
	for i := 0; i < nodes; i++ {
		n := fmt.Sprintf("n%02d", i)
		fab.AttachHCA(n)
		names = append(names, n)
	}
	placement := make([]string, ranks)
	for i := range placement {
		placement[i] = names[i*nodes/ranks]
	}
	return e, fab, NewWorld(e, fab, placement, Config{})
}

// run drives the engine to completion of the world plus a controller, then
// reaps daemons.
func run(t *testing.T, e *sim.Engine) {
	t.Helper()
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
}

func TestSendRecvContentAndSource(t *testing.T) {
	e, _, w := newTestWorld(2, 2)
	want := payload.Synth(7, 0, 1000)
	w.Start(func(r *Rank) {
		if r.ID() == 0 {
			r.SendData(1, 5, want)
		} else {
			got, src := r.Recv(0, 5)
			if src != 0 || !got.Equal(want) {
				t.Errorf("recv: src=%d content ok=%v", src, got.Equal(want))
			}
		}
	})
	e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
	run(t, e)
}

func TestRecvWildcardsAndTagMatching(t *testing.T) {
	e, _, w := newTestWorld(2, 3)
	w.Start(func(r *Rank) {
		switch r.ID() {
		case 0:
			r.Send(2, 10, 64)
		case 1:
			r.Send(2, 20, 64)
		case 2:
			// Tag-selective receive must skip the mismatched message.
			_, src := r.Recv(AnySource, 20)
			if src != 1 {
				t.Errorf("tag 20 from %d, want 1", src)
			}
			_, src = r.Recv(AnySource, AnyTag)
			if src != 0 {
				t.Errorf("wildcard from %d, want 0 (queued)", src)
			}
		}
	})
	e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
	run(t, e)
}

func TestSelfSend(t *testing.T) {
	e, _, w := newTestWorld(1, 1)
	w.Start(func(r *Rank) {
		r.Send(0, 1, 128)
		if _, src := r.Recv(0, 1); src != 0 {
			t.Error("self-send failed")
		}
	})
	e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
	run(t, e)
}

func TestRendezvousSlowerThanEager(t *testing.T) {
	e, _, w := newTestWorld(2, 2)
	var eager, rendezvous sim.Duration
	w.Start(func(r *Rank) {
		if r.ID() == 0 {
			start := r.p.Now()
			r.Send(1, 1, 1024) // eager: returns at post time
			eager = r.p.Now().Sub(start)
			start = r.p.Now()
			r.Send(1, 2, 4<<20) // rendezvous: returns at delivery
			rendezvous = r.p.Now().Sub(start)
		} else {
			r.Recv(0, 1)
			r.Recv(0, 2)
		}
	})
	e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
	run(t, e)
	if eager > time.Millisecond {
		t.Errorf("eager send blocked for %v", eager)
	}
	// 4 MB at 1.4 GB/s is ~2.9 ms serialization, twice (tx+rx).
	if rendezvous < 4*time.Millisecond {
		t.Errorf("rendezvous send took only %v", rendezvous)
	}
}

func TestRingExchangeNoDeadlock(t *testing.T) {
	e, _, w := newTestWorld(4, 8)
	const iters = 10
	w.Start(func(r *Rank) {
		n := r.Size()
		for it := 0; it < iters; it++ {
			got := r.Sendrecv((r.ID()+1)%n, it, 256<<10, (r.ID()-1+n)%n, it)
			if got.Size() != 256<<10 {
				t.Errorf("rank %d iter %d: got %d bytes", r.ID(), it, got.Size())
			}
		}
	})
	e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
	run(t, e)
}

func TestBarrierSynchronizes(t *testing.T) {
	e, _, w := newTestWorld(4, 8)
	var minExit sim.Time = 1 << 62
	var maxEnter sim.Time
	w.Start(func(r *Rank) {
		// Rank i computes i*10ms; after the barrier, nobody may have exited
		// before the slowest entered.
		r.Compute(sim.Duration(r.ID()) * 10 * time.Millisecond)
		if r.p.Now() > maxEnter {
			maxEnter = r.p.Now()
		}
		r.Barrier()
		if r.p.Now() < minExit {
			minExit = r.p.Now()
		}
	})
	e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
	run(t, e)
	if minExit < maxEnter {
		t.Fatalf("a rank left the barrier at %v before the last entered at %v", minExit, maxEnter)
	}
}

func TestBcastDeliversRootPayload(t *testing.T) {
	e, _, w := newTestWorld(3, 6)
	var payloads [6]payload.Buffer
	w.Start(func(r *Rank) {
		payloads[r.ID()] = r.Bcast(2, 4096)
	})
	e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
	run(t, e)
	for i := 1; i < 6; i++ {
		if !payloads[i].Equal(payloads[0]) {
			t.Fatalf("rank %d bcast payload differs", i)
		}
	}
	if payloads[0].Size() != 4096 {
		t.Fatalf("bcast size = %d", payloads[0].Size())
	}
}

func TestAllreduceCompletesEverywhere(t *testing.T) {
	e, _, w := newTestWorld(4, 7) // non-power-of-two on purpose
	var got [7]int64
	w.Start(func(r *Rank) {
		got[r.ID()] = r.Allreduce(8).Size()
	})
	e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
	run(t, e)
	for i, n := range got {
		if n != 8 {
			t.Fatalf("rank %d allreduce returned %d bytes", i, n)
		}
	}
}

func TestSuspendResumeCycleCompletes(t *testing.T) {
	e, _, w := newTestWorld(4, 8)
	iterations := make([]int, 8)
	w.Start(func(r *Rank) {
		n := r.Size()
		for it := 0; it < 40; it++ {
			r.Compute(5 * time.Millisecond)
			r.Sendrecv((r.ID()+1)%n, it, 64<<10, (r.ID()-1+n)%n, it)
			iterations[r.ID()]++
		}
	})
	var drainedAt, suspendedAt, resumedAt sim.Time
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(60 * time.Millisecond)
		s := w.BeginSuspend()
		s.WaitAllDrained(p)
		drainedAt = p.Now()
		s.CompleteTeardown()
		s.WaitAllSuspended(p)
		suspendedAt = p.Now()
		// Global quiescence: nothing in flight anywhere.
		for _, r := range w.Ranks() {
			for peer := range w.Ranks() {
				if r.conn(peer).ok() {
					t.Errorf("rank %d still has endpoints while suspended", r.ID())
				}
			}
		}
		p.Sleep(20 * time.Millisecond) // the framework would act here
		s.Resume()
		s.WaitAllResumed(p)
		resumedAt = p.Now()
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)
	for i, it := range iterations {
		if it != 40 {
			t.Fatalf("rank %d completed %d/40 iterations", i, it)
		}
	}
	if !(drainedAt > 0 && suspendedAt > drainedAt && resumedAt > suspendedAt) {
		t.Fatalf("phase ordering broken: %v %v %v", drainedAt, suspendedAt, resumedAt)
	}
	for _, r := range w.Ranks() {
		if r.Suspensions != 1 {
			t.Fatalf("rank %d suspensions = %d", r.ID(), r.Suspensions)
		}
	}
}

func TestNoMessageLossAcrossSuspensions(t *testing.T) {
	e, _, w := newTestWorld(4, 8)
	const msgs = 60
	received := make([][]bool, 8)
	for i := range received {
		received[i] = make([]bool, msgs)
	}
	w.Start(func(r *Rank) {
		n := r.Size()
		next, prev := (r.ID()+1)%n, (r.ID()-1+n)%n
		for it := 0; it < msgs; it++ {
			want := payload.Synth(uint64(prev)<<16|uint64(it), 0, 2048)
			got := r.SendrecvData(next, it, payload.Synth(uint64(r.ID())<<16|uint64(it), 0, 2048), prev, it)
			if got.Equal(want) {
				received[r.ID()][it] = true
			}
			r.Compute(2 * time.Millisecond)
		}
	})
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		for cycle := 0; cycle < 3; cycle++ {
			p.Sleep(30 * time.Millisecond)
			s := w.BeginSuspend()
			s.WaitAllDrained(p)
			s.CompleteTeardown()
			s.WaitAllSuspended(p)
			s.Resume()
			s.WaitAllResumed(p)
		}
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)
	for rk := range received {
		for it, ok := range received[rk] {
			if !ok {
				t.Fatalf("rank %d lost or corrupted message %d", rk, it)
			}
		}
	}
}

func TestTeardownRevokesCachedRKeys(t *testing.T) {
	e, _, w := newTestWorld(2, 2)
	// Capture the pre-suspension MRs.
	var oldMRs []*ib.MR
	w.Start(func(r *Rank) {
		for it := 0; it < 20; it++ {
			r.Compute(5 * time.Millisecond)
			r.Sendrecv((r.ID()+1)%2, it, 1024, (r.ID()+1)%2, it)
		}
	})
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(20 * time.Millisecond)
		// Connections materialize on first traffic; by now the ring has
		// exchanged several messages, so every pair is pinned.
		for _, r := range w.Ranks() {
			for peer := range w.Ranks() {
				if c := r.conn(peer); c.ok() && c.pr.fab != nil {
					oldMRs = append(oldMRs, c.pr.fab.mr[c.side])
				}
			}
		}
		s := w.BeginSuspend()
		s.WaitAllDrained(p)
		s.CompleteTeardown()
		s.WaitAllSuspended(p)
		for _, mr := range oldMRs {
			if mr.Valid() {
				t.Error("pinned buffer (cached rkey) survived teardown")
			}
		}
		s.Resume()
		s.WaitAllResumed(p)
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)
	if len(oldMRs) == 0 {
		t.Fatal("no MRs captured")
	}
}

func TestRebindMovesRankToNewNode(t *testing.T) {
	e, fab, w := newTestWorld(3, 2) // rank0 on n00, rank1 on n01; n02 spare
	w.Start(func(r *Rank) {
		for it := 0; it < 30; it++ {
			r.Compute(5 * time.Millisecond)
			r.Sendrecv((r.ID()+1)%2, it, 256<<10, (r.ID()+1)%2, it)
		}
	})
	var movedOK bool
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(25 * time.Millisecond)
		before := fab.HCA("n02").BytesTx + fab.HCA("n02").BytesRx
		s := w.BeginSuspend()
		s.WaitAllDrained(p)
		s.CompleteTeardown()
		s.WaitAllSuspended(p)
		w.Rebind(1, "n02", nil)
		s.Resume()
		s.WaitAllResumed(p)
		w.WaitDone(p)
		after := fab.HCA("n02").BytesTx + fab.HCA("n02").BytesRx
		movedOK = after > before+1<<20 // spare node now carries MPI traffic
		if w.Rank(1).Node() != "n02" {
			t.Error("rank 1 not rebound")
		}
		e.Stop()
	})
	run(t, e)
	if !movedOK {
		t.Fatal("no MPI traffic observed on the new node after rebind")
	}
}

func TestSuspendInterruptsBlockedReceive(t *testing.T) {
	// Rank 1 blocks in Recv with no sender until after the suspension; the
	// control message must pull it into the protocol.
	e, _, w := newTestWorld(2, 2)
	w.Start(func(r *Rank) {
		if r.ID() == 1 {
			if _, src := r.Recv(0, 9); src != 0 {
				t.Error("wrong source")
			}
		} else {
			r.Compute(200 * time.Millisecond) // keep rank 0 busy through the cycle
			r.Send(1, 9, 64)
		}
	})
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(20 * time.Millisecond)
		s := w.BeginSuspend()
		s.WaitAllDrained(p)
		s.CompleteTeardown()
		s.WaitAllSuspended(p)
		s.Resume()
		s.WaitAllResumed(p)
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)
	if w.Rank(1).Suspensions != 1 {
		t.Fatalf("blocked rank suspensions = %d, want 1", w.Rank(1).Suspensions)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	runOnce := func() (sim.Time, int64) {
		e, _, w := newTestWorld(4, 8)
		w.Start(func(r *Rank) {
			n := r.Size()
			for it := 0; it < 15; it++ {
				r.Compute(3 * time.Millisecond)
				r.Sendrecv((r.ID()+1)%n, it, 128<<10, (r.ID()-1+n)%n, it)
				if it%5 == 4 {
					r.Allreduce(8)
				}
			}
		})
		var done sim.Time
		e.Spawn("ctl", func(p *sim.Proc) {
			w.WaitReady(p)
			p.Sleep(20 * time.Millisecond)
			s := w.BeginSuspend()
			s.WaitAllDrained(p)
			s.CompleteTeardown()
			s.WaitAllSuspended(p)
			s.Resume()
			s.WaitAllResumed(p)
			w.WaitDone(p)
			done = p.Now()
			e.Stop()
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		e.Shutdown()
		return done, w.BytesSent()
	}
	t1, b1 := runOnce()
	t2, b2 := runOnce()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, b1, t2, b2)
	}
}

func TestSuspendWhileRankFinishing(t *testing.T) {
	// Rank 1 finishes almost immediately; a suspension beginning around that
	// time must still complete.
	e, _, w := newTestWorld(2, 2)
	w.Start(func(r *Rank) {
		if r.ID() == 1 {
			r.Compute(10 * time.Millisecond)
			return
		}
		r.Compute(300 * time.Millisecond)
	})
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(9 * time.Millisecond)
		s := w.BeginSuspend()
		s.WaitAllDrained(p)
		s.CompleteTeardown()
		s.WaitAllSuspended(p)
		s.Resume()
		s.WaitAllResumed(p)
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)
}

// TestIsendDuringSuspensionDrains suspends a 2-rank world while rank 0's
// rendezvous send is on the wire (the blocking Send that replaced Isend):
// the in-flight send counts as active work, so rank 0 may finish its drain
// only after the send has returned and its endpoint is idle, and the
// payload must arrive intact across the suspension.
func TestIsendDuringSuspensionDrains(t *testing.T) {
	e, _, w := newTestWorld(2, 2)
	var sentAt sim.Time
	w.Start(func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, 2<<20) // rendezvous, slow
			sentAt = r.Proc().Now()
			r.Compute(50 * time.Millisecond)
		} else {
			r.Compute(20 * time.Millisecond)
			if got, _ := r.Recv(0, 1); got.Size() != 2<<20 {
				t.Error("payload lost across suspension")
			}
		}
	})
	var drainedAt sim.Time
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(time.Millisecond) // while the send is on the wire
		r := w.Rank(0)
		qp := r.conn(1).qp()
		if qp == nil || qp.Idle() || sentAt != 0 {
			t.Fatal("rank 0's rendezvous send is not on the wire at BeginSuspend")
		}
		s := w.BeginSuspend()
		e.Spawn("drain-watch", func(p *sim.Proc) {
			r.cycle.drained.Wait(p)
			drainedAt = p.Now()
			if !qp.Idle() {
				t.Error("rank 0 drained with its send still on the wire")
			}
		})
		s.WaitAllDrained(p)
		s.CompleteTeardown()
		s.WaitAllSuspended(p)
		s.Resume()
		s.WaitAllResumed(p)
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)
	if sentAt == 0 || drainedAt < sentAt {
		t.Fatalf("rank 0 drained at %v, its send returned at %v; want the drain after the send", drainedAt, sentAt)
	}
}

// TestSuspendDrainWaitsForRendezvous pins one 16-rank suspend/resume cycle
// at the mpi layer. At BeginSuspend rank 15 has a burst of eager messages
// to rank 0 on the wire and, queued behind them on the same endpoint, the
// 2 MiB rendezvous send half of a Sendrecv, while the rank itself is parked
// in the receive half. The suspension interrupts that receive, and the
// drain must wait for the send half: rank 15's first flush round may start
// only once the rendezvous has landed and the endpoint is idle. The test
// also requires every message to arrive and the cycle to dispatch exactly
// as many events and end at exactly the instant it did when the send half
// ran as a flow with its own stage code.
func TestSuspendDrainWaitsForRendezvous(t *testing.T) {
	const (
		wantEvents = 2330
		wantEnd    = sim.Time(251877550)
		eager      = 16
	)
	e, _, w := newTestWorld(4, 16)
	w.Start(func(r *Rank) {
		n := r.Size()
		switch r.ID() {
		case 15:
			for i := 0; i < eager; i++ {
				r.Send(0, 2+i, 8<<10)
			}
			// The suspension lands while the send half is on the wire and
			// the rank waits here for rank 0's reply.
			if got := r.Sendrecv(0, 1, 2<<20, 0, 99); got.Size() != 64 {
				t.Errorf("reply of %d bytes, want 64", got.Size())
			}
		case 0:
			for tag := 1; tag <= 1+eager; tag++ {
				if got, _ := r.Recv(15, tag); got.Size() == 0 {
					t.Errorf("message with tag %d lost", tag)
				}
			}
			r.Send(15, 99, 64)
		default:
			// A ring over ranks 1..14 materializes their connections.
			id, m := r.ID()-1, n-2
			r.Sendrecv(1+(id+1)%m, 0, 64<<10, 1+(id-1+m)%m, 0)
			r.Compute(20 * time.Millisecond)
		}
	})
	var idleAt, drainedAt sim.Time
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(500 * time.Microsecond)
		r := w.Rank(15)
		qp := r.conn(0).qp()
		if qp == nil || qp.Idle() || r.opsIdle.IsOpen() {
			t.Fatal("rank 15's send half to rank 0 is not on the wire at BeginSuspend")
		}
		s := w.BeginSuspend()
		e.Spawn("idle-watch", func(p *sim.Proc) {
			qp.WaitIdle(p)
			idleAt = p.Now()
		})
		e.Spawn("drain-watch", func(p *sim.Proc) {
			r.cycle.drained.Wait(p)
			drainedAt = p.Now()
		})
		s.WaitAllDrained(p)
		s.CompleteTeardown()
		s.WaitAllSuspended(p)
		s.Resume()
		s.WaitAllResumed(p)
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)
	// Rank 15 has 15 connections; every flush round follows the landing.
	if idleAt == 0 || drainedAt != idleAt.Add(15*calib.DrainRoundCost) {
		t.Fatalf("rank 15 drained at %v, its endpoint went idle at %v; want 15 flush rounds after", drainedAt, idleAt)
	}
	if e.Events() != wantEvents || e.Now() != wantEnd {
		t.Fatalf("cycle dispatched %d events and ended at %d ns, want %d and %d", e.Events(), e.Now(), wantEvents, wantEnd)
	}
}

// TestRankSize pins the size of a Rank, which every world allocates once
// per rank and whose embedded runner every blocking call resets. A rank
// keeps no table of its connections: it finds each in its pair's record.
func TestRankSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("pinned for 64-bit platforms")
	}
	if s := unsafe.Sizeof(Rank{}); s != 344 {
		t.Fatalf("unsafe.Sizeof(Rank{}) = %d bytes, want 344", s)
	}
}

// TestPairRecordSize bounds the record every one of a world's N(N-1)/2
// rank pairs holds for the world's whole life, talking or not: both pump
// Procs, the pair's ranks and its state flags. Fabric state lives apart,
// only for pairs that talk. At 2,048 ranks each byte here is 2 MB.
func TestPairRecordSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("pinned for 64-bit platforms")
	}
	if s := unsafe.Sizeof(pair{}); s > 256 {
		t.Fatalf("unsafe.Sizeof(pair{}) = %d bytes, want <= 256", s)
	}
}

// TestReadyAtMeshCost checks MeshCost, the launch-cost model, against the
// engine: Ready fires exactly MeshCost after Start, for several world sizes,
// a non-default rendezvous buffer, and a launch that starts late.
func TestReadyAtMeshCost(t *testing.T) {
	for _, c := range []struct {
		ranks int
		rbuf  int64
		at    sim.Duration
	}{
		{1, 0, 0},
		{2, 0, 0},
		{5, 0, 0},
		{16, 0, 0},
		{5, 3 * calib.RendezvousBufSize, 0},
		{5, 0, 7 * time.Millisecond},
	} {
		e := sim.NewEngine(42)
		fab := ib.NewFabric(e, ib.Config{})
		placement := make([]string, c.ranks)
		for i := range placement {
			placement[i] = fmt.Sprintf("n%02d", i)
			fab.AttachHCA(placement[i])
		}
		w := NewWorld(e, fab, placement, Config{RendezvousBufSize: c.rbuf})
		if c.ranks > 1 && w.MeshCost() <= 0 {
			t.Fatalf("ranks=%d: MeshCost %v, want positive", c.ranks, w.MeshCost())
		}
		var ready, started sim.Time
		e.Spawn("launch", func(p *sim.Proc) {
			p.Sleep(c.at)
			started = p.Now()
			w.Start(func(*Rank) {})
			w.WaitReady(p)
			ready = p.Now()
			w.WaitDone(p)
			e.Stop()
		})
		run(t, e)
		if got := ready.Sub(started); got != w.MeshCost() {
			t.Errorf("ranks=%d rbuf=%d at=%v: Ready after %v, MeshCost %v",
				c.ranks, c.rbuf, c.at, got, w.MeshCost())
		}
	}
}
