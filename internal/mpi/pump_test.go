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
// The launch's bytes are divided the same way: they are the slabs, so a
// pair costs its record and the slab's size-class rounding.
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
	// and returns the heap allocations made meanwhile, and their bytes.
	window := func(end sim.Time) (allocs, bytes uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := e.RunUntil(end); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
	}

	if err := e.RunUntil(0); err != nil {
		t.Fatal(err)
	}
	launch, launchBytes := window(sim.Time(w.MeshCost()) - 1)
	// Run on through the suspension: the coordinator stops the engine once
	// every rank has torn down, with the resume command about to fire.
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	resumeAt := e.Now()
	if err := e.RunUntil(resumeAt); err != nil {
		t.Fatal(err)
	}
	rebuild, rebuildBytes := window(resumeAt.Add((ranks-1)*pairCost) - 1)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !resumed || !w.Done() {
		t.Fatalf("world did not finish the cycle: resumed=%v done=%v", resumed, w.Done())
	}

	// Both windows miss exactly one connect: Ready's, and rank 0's last.
	const connects = pairs - 1
	t.Logf("launch: %d allocations, %d bytes for %d pairs (%.2f, %.1f B each); rebuild: %d, %d bytes (%.2f, %.1f B each)",
		launch, launchBytes, connects, float64(launch)/connects, float64(launchBytes)/connects,
		rebuild, rebuildBytes, float64(rebuild)/connects, float64(rebuildBytes)/connects)
	if got := launch / connects; got != 0 {
		t.Errorf("launch allocates %d times per rank pair, want 0", got)
	}
	if got := rebuild / connects; got != 0 {
		t.Errorf("rebuild allocates %d times per rank pair, want 0", got)
	}
	// The launch's bytes are the slabs: one pair record per pair, rounded
	// up to the slab's size class, which wastes at most an eighth.
	if got, max := launchBytes/connects, uint64(unsafe.Sizeof(pair{}))*9/8; got > max {
		t.Errorf("launch allocates %d bytes per rank pair, want <= %d (a %d-byte record plus slab rounding)",
			got, max, unsafe.Sizeof(pair{}))
	}
}

// TestMeshPairReuse checks that a pair's record is its slab entry for the
// world's whole life. Eight fault-tolerant ranks on four nodes exchange
// around a ring through two suspension cycles and, between them, the
// failure and recovery of one adapter, which the ring's senders repair with
// reconnectFT. After the launch and after each rebuild, both ranks of every
// pair must find their endpoints in the pair's entry, with both pumps live
// in it, and no slab may have been made again. Connecting pair (0,4), which
// the ring never uses, right after launch, while its pumps are still
// parked, must panic with a message naming the pair and leave the pair as
// it was.
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
	// inEntry reports whether both ends of pair (i, j) are connected
	// through its slab entry.
	inEntry := func(i, j int) bool {
		pr := &w.pairs[i][j-i-1]
		a, b := w.ranks[i].conn(j), w.ranks[j].conn(i)
		return a.pr == pr && a.side == 0 && b.pr == pr && b.side == 1
	}
	pumpsLive := func(i, j int) bool {
		pr := &w.pairs[i][j-i-1]
		return !pr.pump[0].Idle() && !pr.pump[1].Idle()
	}
	var slabs [ranks - 1]*pair
	checkPairs := func(when string) {
		t.Helper()
		for i := 0; i < ranks-1; i++ {
			if slabs[i] == nil {
				slabs[i] = &w.pairs[i][0]
			} else if slabs[i] != &w.pairs[i][0] {
				t.Errorf("%s: rank %d's slab was made again", when, i)
			}
			for j := i + 1; j < ranks; j++ {
				if !inEntry(i, j) || !pumpsLive(i, j) {
					t.Errorf("%s: pair (%d,%d) in its entry: %v, pumps live: %v", when, i, j, inEntry(i, j), pumpsLive(i, j))
				}
			}
		}
	}
	reconnects := 0
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		checkPairs("launch")
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "pair (0,4)") {
					t.Errorf("second connect of (0,4): recovered %q, want a panic naming the pair", msg)
				}
			}()
			w.connect(w.ranks[0], w.ranks[4])
		}()
		checkPairs("second connect of (0,4)")

		cycle := func(n int) {
			p.Sleep(10 * time.Millisecond)
			s := w.BeginSuspend()
			s.WaitAllDrained(p)
			s.CompleteTeardown()
			s.WaitAllSuspended(p)
			s.Resume()
			s.WaitAllResumed(p)
			checkPairs(fmt.Sprintf("rebuild %d", n))
		}
		cycle(1)

		// The ring's pairs through n01 — (1,2), (2,3) and (3,4) — break,
		// and their senders rebuild them once their retry comes round.
		p.Sleep(5 * time.Millisecond)
		fab.HCA("n01").Fail()
		fab.HCA("n01").Recover()
		p.Sleep(30 * time.Millisecond)
		for i := 1; i <= 3; i++ {
			if c := w.ranks[i].conn(i + 1); !c.ok() || c.brokenNow(w) {
				t.Fatalf("pair (%d,%d) was not rebuilt after the failure", i, i+1)
			}
			if !inEntry(i, i+1) || !pumpsLive(i, i+1) {
				t.Errorf("reconnectFT: pair (%d,%d) in its entry: %v, pumps live: %v", i, i+1, inEntry(i, i+1), pumpsLive(i, i+1))
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
			qp, err := r.conn(1).ensure(r.w)
			if err != nil {
				t.Error(err)
				return
			}
			// A message without the MPI envelope makes rank 1's pump fail
			// its header assertion.
			if err := qp.PostSend(ib.Message{Meta: "no envelope"}); err != nil {
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

// TestBreakLazyConnsWakeOrder pins which pumps an adapter failure ends, and
// in what order. Six ranks sit two to a node; the failed node, n01, hosts
// the middle ranks 2 and 3. Pair (1,2) has talked, so the fabric breaks its
// QPs, the failed node's end first, and its pumps end first; every other
// pair with a rank on n01 is lazy,
// and the world's fail hook wakes its pumps in ascending (rank, peer)
// order. Pairs with no rank on n01 keep their pumps.
func TestBreakLazyConnsWakeOrder(t *testing.T) {
	e, fab, w := newTestWorld(3, 6)
	rec := &sim.Recorder{}
	e.SetTracer(rec)
	w.Start(func(r *Rank) {
		switch r.ID() {
		case 1:
			r.Send(2, 0, 64)
		case 2:
			r.Recv(1, 0)
		}
		r.Compute(10 * time.Millisecond)
	})
	var failAt sim.Time
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(time.Millisecond)
		failAt = p.Now()
		fab.HCA("n01").Fail()
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)
	var ended []string
	for _, r := range rec.Records {
		if r.Kind == "proc.end" && r.T == failAt && strings.HasPrefix(r.Who, "mpi.pump.") {
			ended = append(ended, r.Who)
		}
	}
	want := []string{
		"mpi.pump.2<-1", "mpi.pump.1<-2",
		"mpi.pump.0<-2", "mpi.pump.0<-3",
		"mpi.pump.1<-3",
		"mpi.pump.2<-0", "mpi.pump.2<-3", "mpi.pump.2<-4", "mpi.pump.2<-5",
		"mpi.pump.3<-0", "mpi.pump.3<-1", "mpi.pump.3<-2", "mpi.pump.3<-4", "mpi.pump.3<-5",
		"mpi.pump.4<-2", "mpi.pump.4<-3",
		"mpi.pump.5<-2", "mpi.pump.5<-3",
	}
	if strings.Join(ended, " ") != strings.Join(want, " ") {
		t.Fatalf("pumps ended at the failure:\n got %v\nwant %v", ended, want)
	}
}

// TestPumpsEndBeforeReconnect checks what lets connect reuse a pair's
// record in place: every pump of a pair's previous life has ended before
// the pair's setup sleeps begin. Eight fault-tolerant ranks on four nodes
// exchange around a ring, with their neighbours for 30 iterations and then
// with the ranks two away. One suspension cycle tears down and rebuilds
// every pair, materialized (the ring's) and lazy alike. Then n01's adapter
// fails and recovers before the ranks move on, and the ranks' senders
// rebuild with reconnectFT both the ring pairs through n01, which had
// talked, and the pairs two apart through it, which were still lazy. In the
// trace, every pump life after a pair's first must start at least the
// pair's whole setup cost after the pump's previous life ended.
func TestPumpsEndBeforeReconnect(t *testing.T) {
	const ranks = 8
	e, fab, w := newTestWorld(4, ranks)
	rec := &sim.Recorder{}
	e.SetTracer(rec)
	w.SetFaultTolerant(true)
	w.Start(func(r *Rank) {
		n := r.Size()
		for i := 0; i < 60; i++ {
			d := 1 + i/30
			r.Sendrecv((r.ID()+d)%n, i, 1<<10, (r.ID()-d+n)%n, i)
			r.Compute(2 * time.Millisecond)
		}
	})
	var failAt sim.Time
	materialized := map[[2]int]bool{} // pairs through n01 at the failure
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(10 * time.Millisecond)
		s := w.BeginSuspend()
		s.WaitAllDrained(p)
		s.CompleteTeardown()
		s.WaitAllSuspended(p)
		s.Resume()
		s.WaitAllResumed(p)
		p.Sleep(5 * time.Millisecond)
		failAt = p.Now()
		for i := 0; i < ranks; i++ {
			for j := i + 1; j < ranks; j++ {
				if w.ranks[i].node == "n01" || w.ranks[j].node == "n01" {
					materialized[[2]int{i, j}] = w.pairs[i][j-i-1].fab != nil
				}
			}
		}
		fab.HCA("n01").Fail()
		fab.HCA("n01").Recover()
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)

	c := w.pairCosts()
	setup := c[0] + c[1] + c[2]
	ended := map[string]sim.Time{} // pump name -> end of its last life
	lives := map[string]int{}
	var rebuiltLazy, rebuiltTalked int
	for _, r := range rec.Records {
		if !strings.HasPrefix(r.Who, "mpi.pump.") {
			continue
		}
		switch r.Kind {
		case "proc.end":
			ended[r.Who] = r.T
		case "proc.start":
			lives[r.Who]++
			if lives[r.Who] == 1 {
				continue
			}
			end, ok := ended[r.Who]
			if !ok || r.T.Sub(end) < setup {
				t.Errorf("%s: life %d starts at %v, its previous life ended at %v (ended: %v); want at least %v before",
					r.Who, lives[r.Who], r.T, end, ok, setup)
			}
			delete(ended, r.Who)
			var i, j int
			if _, err := fmt.Sscanf(r.Who, "mpi.pump.%d<-%d", &i, &j); err != nil {
				t.Fatalf("pump name %q: %v", r.Who, err)
			}
			if i < j && r.T > failAt {
				if materialized[[2]int{i, j}] {
					rebuiltTalked++
				} else {
					rebuiltLazy++
				}
			}
		}
	}
	for i := 0; i < ranks; i++ {
		for j := 0; j < ranks; j++ {
			if i != j && lives[pumpName(i, j)] < 2 {
				t.Errorf("%s: %d lives, want the suspension's rebuild at least", pumpName(i, j), lives[pumpName(i, j)])
			}
		}
	}
	t.Logf("reconnectFT rebuilt %d pairs that had talked and %d lazy ones", rebuiltTalked, rebuiltLazy)
	if rebuiltTalked == 0 || rebuiltLazy == 0 {
		t.Errorf("reconnectFT rebuilt %d pairs that had talked and %d lazy ones; want both kinds", rebuiltTalked, rebuiltLazy)
	}
	if !w.Done() {
		t.Fatal("world did not finish")
	}
}
