package mpi

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"ibmig/internal/ib"
	"ibmig/internal/sim"
)

// TestMeshAllocsPerPair guards the host cost of a rank pair. A 64-rank world
// whose app only computes is launched and then suspended and resumed once;
// the heap allocations made while the launch connects its pairs, and while
// the resume rebuilds them, are divided by the pairs connected in that
// window. A pair must cost no allocation at launch or at rebuild: its
// endpoints and both pump Procs live in its entry of the world's slab for
// its lower rank, which the rebuild resets in place (the pumps ended at
// teardown). Like testing.AllocsPerRun the ratio is an integer quotient,
// which absorbs the few allocations of the rest of the window: one slab per
// lower rank at launch, the PMI queue and wait group growing at rebuild.
//
// Each window is cut with RunUntil so it holds nothing but pair work: the
// launch window starts after the launch process has begun and ends one
// nanosecond before Ready, so it holds every connect but the last; the
// rebuild window starts after the ranks have taken the resume command and
// ends one nanosecond before rank 0, which connects the most pairs,
// connects its last.
func TestMeshAllocsPerPair(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ranks = 64
	const pairs = ranks * (ranks - 1) / 2
	e, _, w := newTestWorld(8, ranks)
	w.Start(func(r *Rank) { r.Compute(50 * time.Millisecond) })
	var resumed bool
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(10 * time.Millisecond)
		s := w.BeginSuspend()
		s.WaitAllDrained(p)
		s.CompleteTeardown()
		s.WaitAllSuspended(p)
		// Hand control back to the test before the ranks see the resume
		// command, so it can open the rebuild window.
		e.Stop()
		s.Resume()
		s.WaitAllResumed(p)
		resumed = true
		w.WaitDone(p)
		e.Stop()
	})
	pairCost := func() sim.Duration {
		c := w.pairCosts()
		return c[0] + c[1] + c[2]
	}()
	// window runs the engine from its current instant to end (inclusive)
	// and returns the heap allocations made meanwhile.
	window := func(end sim.Time) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.RunUntil(end); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}

	if err := e.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	launch := window(sim.Time(w.MeshCost()) - 1)
	// Run on through the suspension: the coordinator stops the engine once
	// every rank has torn down, with the resume command about to fire.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	resumeAt := e.Now()
	if err := e.RunUntil(resumeAt); err != nil {
		t.Fatal(err)
	}
	rebuild := window(resumeAt.Add((ranks-1)*pairCost) - 1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !resumed || !w.Done() {
		t.Fatalf("world did not finish the cycle: resumed=%v done=%v", resumed, w.Done())
	}

	// Both windows miss exactly one connect: Ready's, and rank 0's last.
	const connects = pairs - 1
	t.Logf("launch: %d allocations for %d pairs (%.2f each); rebuild: %d (%.2f each)",
		launch, connects, float64(launch)/connects, rebuild, float64(rebuild)/connects)
	if got := launch / connects; got != 0 {
		t.Errorf("launch allocates %d times per rank pair, want 0", got)
	}
	if got := rebuild / connects; got != 0 {
		t.Errorf("rebuild allocates %d times per rank pair, want 0", got)
	}
}

// TestMeshPairReuse checks when a connect reuses a pair's slab entry. Eight
// fault-tolerant ranks on four nodes exchange around a ring through two
// suspension cycles and, between them, the failure and recovery of one
// adapter, which the ring's senders repair with reconnectFT. Every connect
// must put the pair's endpoints in its slab entry when both pumps of the
// entry's previous life have ended, and in a fresh record otherwise: pair
// (0,4), which the ring never uses, is connected again right after launch,
// while its pumps are still parked, so its entry keeps those pumps and every
// later connect of it must fall back to a fresh record.
func TestMeshPairReuse(t *testing.T) {
	const ranks = 8
	e, fab, w := newTestWorld(4, ranks)
	w.SetFaultTolerant(true)
	w.Start(func(r *Rank) {
		n := r.Size()
		for i := 0; i < 60; i++ {
			r.Sendrecv((r.ID()+1)%n, i, 1<<10, (r.ID()-1+n)%n, i)
			r.Compute(2 * time.Millisecond)
		}
	})
	entry := func(i, j int) *pairConns { return &w.pairs[i][j-i-1] }
	inSlab := func(i, j int) bool {
		pc := entry(i, j)
		return w.ranks[i].conns[j] == &pc.a && w.ranks[j].conns[i] == &pc.b
	}
	pumpsEnded := func(i, j int) bool {
		pc := entry(i, j)
		return pc.a.pump.Idle() && pc.b.pump.Idle()
	}
	// checkPairs requires every pair to sit in its slab entry exactly when
	// reused says so, and in a fresh record, one record for both ends,
	// otherwise.
	checkPairs := func(when string, reused func(i, j int) bool) {
		t.Helper()
		for i := 0; i < ranks; i++ {
			for j := i + 1; j < ranks; j++ {
				a, b := w.ranks[i].conns[j], w.ranks[j].conns[i]
				switch {
				case a == nil || b == nil || a.buddy != b || b.buddy != a:
					t.Errorf("%s: pair (%d,%d) is not connected", when, i, j)
				case inSlab(i, j) != reused(i, j):
					t.Errorf("%s: pair (%d,%d) in its slab entry: %v, want %v", when, i, j, inSlab(i, j), reused(i, j))
				}
			}
		}
	}
	fallback := func(i, j int) bool { return i == 0 && j == 4 }
	reconnects := 0
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		checkPairs("launch", func(i, j int) bool { return true })
		if pumpsEnded(0, 4) {
			t.Fatal("pair (0,4)'s pumps ended before the ring began")
		}
		w.connect(w.ranks[0], w.ranks[4])
		checkPairs("second connect of (0,4)", func(i, j int) bool { return !fallback(i, j) })

		cycle := func(n int) {
			p.Sleep(10 * time.Millisecond)
			s := w.BeginSuspend()
			s.WaitAllDrained(p)
			s.CompleteTeardown()
			s.WaitAllSuspended(p)
			var ended [ranks][ranks]bool
			for i := 0; i < ranks; i++ {
				for j := i + 1; j < ranks; j++ {
					ended[i][j] = pumpsEnded(i, j)
				}
			}
			s.Resume()
			s.WaitAllResumed(p)
			checkPairs(fmt.Sprintf("rebuild %d", n), func(i, j int) bool { return ended[i][j] })
			checkPairs(fmt.Sprintf("rebuild %d", n), func(i, j int) bool { return !fallback(i, j) })
		}
		cycle(1)

		// The ring's pairs through n01 — (1,2), (2,3) and (3,4) — break,
		// and their senders rebuild them once their retry comes round. The
		// failure woke every pump of a broken pair, so each rebuild reuses
		// the pair's entry.
		p.Sleep(5 * time.Millisecond)
		fab.HCA("n01").Fail()
		fab.HCA("n01").Recover()
		p.Sleep(30 * time.Millisecond)
		for i := 1; i <= 3; i++ {
			if c := w.ranks[i].conns[i+1]; c == nil || c.brokenNow() {
				t.Fatalf("pair (%d,%d) was not rebuilt after the failure", i, i+1)
			}
			if !inSlab(i, i+1) {
				t.Errorf("reconnectFT: pair (%d,%d) is not in its slab entry", i, i+1)
			}
			reconnects++
		}
		cycle(2)
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)
	if !w.Done() || reconnects != 3 {
		t.Fatalf("world done: %v, pairs rebuilt by reconnectFT: %d; want true and 3", w.Done(), reconnects)
	}
}

// TestRingAllocsPerMessage guards the steady-state host cost of a message:
// payload, envelope, send and delivery together allocate nothing. Eight
// ranks on eight nodes pass messages around a ring with blocking Send and
// Recv, the calls LU's wavefront makes, alternating an eager and a
// rendezvous size. After a warm-up that materializes every pair and grows
// every queue, the heap allocations of a window of ring steps are divided by
// the messages sent in it; like testing.AllocsPerRun the ratio is an integer
// quotient, and it must be 0.
func TestRingAllocsPerMessage(t *testing.T) {
	ringAllocsPerMessage(t, false, func(r *Rank, to, from, tag int, size int64) {
		r.Send(to, tag, size)
		r.Recv(from, tag)
	})
}

// TestRingAllocsPerMessageSendrecv is TestRingAllocsPerMessage with
// Sendrecv, the exchange BT, SP and Barrier make: its send half, a pooled
// record that is its own flow, must allocate nothing either (a helper
// process and its completion event cost 2 allocations a message).
func TestRingAllocsPerMessageSendrecv(t *testing.T) {
	ringAllocsPerMessage(t, false, sendrecvRing)
}

// TestRingAllocsPerMessageSendrecvFT is TestRingAllocsPerMessageSendrecv in
// fault-tolerant mode, where the exchange runs in the rank's process and
// every send is synchronous: the SendStep of a send on the wire is borrowed
// from the world's pool of send records, so it allocates nothing either.
func TestRingAllocsPerMessageSendrecvFT(t *testing.T) {
	ringAllocsPerMessage(t, true, sendrecvRing)
}

func sendrecvRing(r *Rank, to, from, tag int, size int64) { r.Sendrecv(to, tag, size, from, tag) }

// ringAllocsPerMessage runs the ring of TestRingAllocsPerMessage with
// exchange as each rank's step, in fault-tolerant mode when ft is set, and
// requires 0 allocations a message.
func ringAllocsPerMessage(t *testing.T, ft bool, exchange func(r *Rank, to, from, tag int, size int64)) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ranks, warm, measured = 8, 50, 200
	e, _, w := newTestWorld(ranks, ranks)
	w.SetFaultTolerant(ft)
	w.Start(func(r *Rank) {
		n := r.Size()
		for i := 0; i < warm+measured+1; i++ {
			if r.ID() == 0 && (i == warm || i == warm+measured) {
				e.Stop()
			}
			size := int64(1 << 10)
			if i%2 == 1 {
				size = 2 * w.cfg.EagerThreshold
			}
			exchange(r, (r.ID()+1)%n, (r.ID()-1+n)%n, i, size)
		}
	})
	e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
	sent := func() (n int64) {
		for _, r := range w.ranks {
			n += r.MsgsSent
		}
		return n
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	msgs := sent()
	runtime.ReadMemStats(&before)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	msgs = sent() - msgs
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !w.Done() {
		t.Fatal("ring did not finish")
	}
	mallocs := int64(after.Mallocs - before.Mallocs)
	t.Logf("%d allocations for %d messages (%.3f each)", mallocs, msgs, float64(mallocs)/float64(msgs))
	if msgs < ranks*measured/2 {
		t.Fatalf("window held %d messages, want at least %d", msgs, ranks*measured/2)
	}
	if got := mallocs / msgs; got != 0 {
		t.Errorf("a steady-state message allocates %d times, want 0", got)
	}
}

// TestSendRecordsAcrossWorlds runs worlds on several goroutines at once, as
// a partitioned run and exp.Map do, and checks that concurrent worlds share
// no send state: each world's send records stay its own (run it with
// -race), and each world must end exactly as the same world run alone.
func TestSendRecordsAcrossWorlds(t *testing.T) {
	type outcome struct {
		events uint64
		end    sim.Time
	}
	ring := func(ft bool) outcome {
		e, _, w := newTestWorld(4, 8)
		w.SetFaultTolerant(ft)
		w.Start(func(r *Rank) {
			n := r.Size()
			for i := 0; i < 20; i++ {
				size := int64(1 << 10)
				if i%2 == 1 {
					size = 2 * w.cfg.EagerThreshold
				}
				r.Sendrecv((r.ID()+1)%n, i, size, (r.ID()-1+n)%n, i)
			}
			r.Barrier()
		})
		e.Spawn("ctl", func(p *sim.Proc) { w.WaitDone(p); e.Stop() })
		if err := e.Run(); err != nil {
			t.Error(err)
		}
		o := outcome{e.Events(), e.Now()}
		e.Shutdown()
		return o
	}
	want := map[bool]outcome{false: ring(false), true: ring(true)}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		ft := g%2 == 1
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				if got := ring(ft); got != want[ft] {
					t.Errorf("ft=%v: a concurrent world ended with %+v, alone %+v", ft, got, want[ft])
				}
			}
		}()
	}
	wg.Wait()
}

// pumpName is the name every pump flow of pair (rank <- peer) must carry.
func pumpName(rank, peer int) string { return fmt.Sprintf("mpi.pump.%d<-%d", rank, peer) }

// TestLazyPumpNames checks that pumps, which are spawned unnamed and name
// themselves only when read, still carry their names wherever a name is
// read: the proc.start/proc.end records of a traced run (formatted once per
// life, so both records of a life share one string), a deadlock report, and
// the run error of a panicking step.
func TestLazyPumpNames(t *testing.T) {
	t.Run("trace", func(t *testing.T) {
		const ranks = 3
		e, _, w := newTestWorld(ranks, ranks)
		rec := &sim.Recorder{}
		e.SetTracer(rec)
		w.Start(func(r *Rank) { r.Compute(30 * time.Millisecond) })
		e.Spawn("coordinator", func(p *sim.Proc) {
			w.WaitReady(p)
			p.Sleep(10 * time.Millisecond)
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

		// Every ordered pair has two pump lives: launch to teardown, and
		// rebuild to Shutdown. The name is formatted once per life, so the
		// proc.end record reuses the proc.start record's string.
		open := map[string]string{} // live pump name -> its proc.start string
		lives := map[string]int{}
		for _, r := range rec.Records {
			if !strings.HasPrefix(r.Who, "mpi.pump.") {
				continue
			}
			switch r.Kind {
			case "proc.start":
				if _, ok := open[r.Who]; ok {
					t.Fatalf("%s started twice in one life", r.Who)
				}
				open[r.Who] = r.Who
				lives[r.Who]++
			case "proc.end":
				start, ok := open[r.Who]
				if !ok {
					t.Fatalf("%s ended without starting", r.Who)
				}
				if unsafe.StringData(start) != unsafe.StringData(r.Who) {
					t.Errorf("%s: name formatted again within one life", r.Who)
				}
				delete(open, r.Who)
			}
		}
		for i := 0; i < ranks; i++ {
			for j := 0; j < ranks; j++ {
				if i == j {
					continue
				}
				if n := lives[pumpName(i, j)]; n != 2 {
					t.Errorf("%s: %d lives traced, want 2", pumpName(i, j), n)
				}
			}
		}
		if len(lives) != ranks*(ranks-1) {
			t.Errorf("traced %d pump names, want %d: %v", len(lives), ranks*(ranks-1), lives)
		}
	})

	t.Run("deadlock", func(t *testing.T) {
		e, _, w := newTestWorld(2, 2)
		w.Start(func(r *Rank) {
			if r.ID() == 1 {
				r.Recv(0, 1) // nobody sends: both pumps stay lazy
			}
		})
		err := e.Run()
		var dl *sim.DeadlockError
		if !errors.As(err, &dl) {
			t.Fatalf("Run = %v, want a deadlock", err)
		}
		e.Shutdown()
		for _, want := range []string{pumpName(0, 1), pumpName(1, 0)} {
			entry := want + ": queue.recv:mpi.lazy"
			found := false
			for _, b := range dl.Blocked {
				found = found || b == entry
			}
			if !found {
				t.Errorf("deadlock report %q lacks %q", dl.Blocked, entry)
			}
		}
	})

	t.Run("panic", func(t *testing.T) {
		e, _, w := newTestWorld(2, 2)
		w.Start(func(r *Rank) {
			if r.ID() != 0 {
				return
			}
			c := r.conns[1]
			if err := c.ensure(); err != nil {
				t.Error(err)
				return
			}
			// A message without the MPI envelope makes rank 1's pump fail
			// its header assertion.
			if err := c.qp.PostSend(ib.Message{Meta: "no envelope"}); err != nil {
				t.Error(err)
			}
		})
		err := e.Run()
		e.Shutdown()
		want := fmt.Sprintf("sim: process %q panicked", pumpName(1, 0))
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("Run = %v, want an error starting %q", err, want)
		}
	})
}
