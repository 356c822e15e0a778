package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	e := NewEngine(1)
	var at Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(250 * time.Millisecond)
		at = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if want := Time(250 * 1e6); at != want {
		t.Fatalf("woke at %v, want %v", at, want)
	}
}

func TestSequentialSleepsAccumulate(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("p", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Millisecond)
		}
		if p.Now() != Time(10*1e6) {
			t.Errorf("now = %v, want 10ms", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(7)
		var order []string
		for i := 0; i < 5; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Sleep(Duration(i+1) * time.Millisecond)
					order = append(order, fmt.Sprintf("p%d@%v", i, p.Now()))
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic interleaving:\n%v\n%v", a, b)
	}
}

func TestSameTimeEventsFIFO(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 8; i++ {
		i := i
		e.After(time.Millisecond, func() { order = append(order, i) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestEventBroadcast(t *testing.T) {
	e := NewEngine(1)
	ev := NewEvent(e)
	woke := make([]Time, 3)
	for i := 0; i < 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			ev.Wait(p)
			woke[i] = p.Now()
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		ev.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, w := range woke {
		if w != Time(5*1e6) {
			t.Errorf("waiter %d woke at %v, want 5ms", i, w)
		}
	}
	// Waiting on an already-fired event returns immediately.
	e2 := NewEngine(1)
	ev2 := NewEvent(e2)
	ev2.Fire()
	e2.Spawn("late", func(p *Proc) {
		ev2.Wait(p)
		if p.Now() != 0 {
			t.Errorf("late waiter delayed to %v", p.Now())
		}
	})
	if err := e2.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEventWaitTimeout(t *testing.T) {
	e := NewEngine(1)
	ev := NewEvent(e)
	var fired, timedOut bool
	e.Spawn("timeout", func(p *Proc) {
		timedOut = !ev.WaitTimeout(p, 2*time.Millisecond)
		if p.Now() != Time(2*1e6) {
			t.Errorf("timeout at %v, want 2ms", p.Now())
		}
	})
	e.Spawn("success", func(p *Proc) {
		fired = ev.WaitTimeout(p, 20*time.Millisecond)
		if p.Now() != Time(5*1e6) {
			t.Errorf("fired wake at %v, want 5ms", p.Now())
		}
	})
	e.Spawn("firer", func(p *Proc) {
		p.Sleep(5 * time.Millisecond)
		ev.Fire()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut || !fired {
		t.Fatalf("timedOut=%v fired=%v", timedOut, fired)
	}
}

func TestQueueFIFOAndBlocking(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, "q", 0)
	var got []int
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 5; i++ {
			v, ok := q.Recv(p)
			if !ok {
				t.Error("queue closed early")
			}
			got = append(got, v)
		}
	})
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Millisecond)
			q.Send(p, i)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3, 4}) {
		t.Fatalf("got %v", got)
	}
}

func TestQueueCapacityBlocksSender(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, "q", 2)
	var sentAt []Time
	e.Spawn("send", func(p *Proc) {
		for i := 0; i < 4; i++ {
			q.Send(p, i)
			sentAt = append(sentAt, p.Now())
		}
	})
	e.Spawn("recv", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Sleep(10 * time.Millisecond)
			if _, ok := q.Recv(p); !ok {
				t.Error("unexpected close")
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if sentAt[0] != 0 || sentAt[1] != 0 {
		t.Errorf("first two sends should not block: %v", sentAt)
	}
	if sentAt[2] != Time(10*1e6) || sentAt[3] != Time(20*1e6) {
		t.Errorf("sends 3,4 should block until receives: %v", sentAt)
	}
}

func TestQueueClose(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[string](e, "q", 0)
	var results []string
	var okAfterClose bool
	e.Spawn("recv", func(p *Proc) {
		for {
			v, ok := q.Recv(p)
			if !ok {
				okAfterClose = true
				return
			}
			results = append(results, v)
		}
	})
	e.Spawn("send", func(p *Proc) {
		q.Send(p, "a")
		q.Send(p, "b")
		p.Sleep(time.Millisecond)
		q.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !okAfterClose || !reflect.DeepEqual(results, []string{"a", "b"}) {
		t.Fatalf("results=%v okAfterClose=%v", results, okAfterClose)
	}
}

func TestResourceSerializesFIFO(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "link", 1)
	var order []string
	for i := 0; i < 4; i++ {
		i := i
		e.Spawn(fmt.Sprintf("u%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * time.Microsecond) // deterministic arrival order
			r.Acquire(p, 1)
			order = append(order, fmt.Sprintf("u%d@%v", i, p.Now()))
			p.Sleep(time.Millisecond)
			r.Release(1)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"u0@0s", "u1@1ms", "u2@2ms", "u3@3ms"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestResourceLargeRequestNotStarved(t *testing.T) {
	e := NewEngine(1)
	r := NewResource(e, "mem", 4)
	var bigAt Time
	e.Spawn("small1", func(p *Proc) { r.Hold(p, 2, 10*time.Millisecond) })
	e.Spawn("small2", func(p *Proc) { r.Hold(p, 2, 10*time.Millisecond) })
	e.Spawn("big", func(p *Proc) {
		p.Sleep(time.Millisecond)
		r.Acquire(p, 4)
		bigAt = p.Now()
		r.Release(4)
	})
	e.Spawn("small3", func(p *Proc) {
		p.Sleep(2 * time.Millisecond)
		r.Hold(p, 1, time.Millisecond) // queued behind big; must not jump it
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if bigAt != Time(10*1e6) {
		t.Fatalf("big acquired at %v, want 10ms (after both smalls release)", bigAt)
	}
}

func TestWaitGroup(t *testing.T) {
	e := NewEngine(1)
	wg := NewWaitGroup(e)
	wg.Add(3)
	var doneAt Time
	for i := 1; i <= 3; i++ {
		i := i
		e.Spawn(fmt.Sprintf("worker%d", i), func(p *Proc) {
			p.Sleep(Duration(i) * time.Millisecond)
			wg.Done()
		})
	}
	e.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		doneAt = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != Time(3*1e6) {
		t.Fatalf("waiter released at %v, want 3ms", doneAt)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine(1)
	ev := NewEvent(e)
	e.Spawn("stuck", func(p *Proc) { ev.Wait(p) })
	err := e.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("boom", func(p *Proc) {
		p.Sleep(time.Millisecond)
		panic("kaboom")
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestRunUntilPausesAndResumes(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10 * time.Millisecond)
			ticks = append(ticks, p.Now())
		}
	})
	if err := e.RunUntil(Time(25 * 1e6)); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 2 {
		t.Fatalf("after RunUntil(25ms): %d ticks, want 2", len(ticks))
	}
	if e.Now() != Time(25*1e6) {
		t.Fatalf("now = %v, want 25ms", e.Now())
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(ticks) != 5 {
		t.Fatalf("after Run: %d ticks, want 5", len(ticks))
	}
}

func TestSpawnFromProcessAndCallback(t *testing.T) {
	e := NewEngine(1)
	var childRan, cbChildRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(time.Millisecond)
		done := NewEvent(e)
		p.SpawnChild("child", func(c *Proc) {
			c.Sleep(time.Millisecond)
			childRan = true
			done.Fire()
		})
		done.Wait(p)
	})
	e.After(5*time.Millisecond, func() {
		e.Spawn("cb-child", func(c *Proc) { cbChildRan = true })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan || !cbChildRan {
		t.Fatalf("childRan=%v cbChildRan=%v", childRan, cbChildRan)
	}
}

// Property: for any set of sleep durations, each process wakes exactly at the
// prefix sums of its own durations, independent of other processes.
func TestQuickSleepIsolation(t *testing.T) {
	f := func(durA, durB []uint16) bool {
		if len(durA) > 50 {
			durA = durA[:50]
		}
		if len(durB) > 50 {
			durB = durB[:50]
		}
		e := NewEngine(99)
		check := func(name string, durs []uint16, fail *bool) {
			e.Spawn(name, func(p *Proc) {
				var sum Time
				for _, d := range durs {
					p.Sleep(Duration(d) * time.Microsecond)
					sum += Time(d) * 1000
					if p.Now() != sum {
						*fail = true
					}
				}
			})
		}
		var failA, failB bool
		check("a", durA, &failA)
		check("b", durB, &failB)
		if err := e.Run(); err != nil {
			return false
		}
		return !failA && !failB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: queue preserves order and loses nothing for any message count and
// any capacity.
func TestQuickQueueConservation(t *testing.T) {
	f := func(n uint8, capacity uint8) bool {
		e := NewEngine(5)
		q := NewQueue[int](e, "q", int(capacity%8))
		count := int(n%100) + 1
		var got []int
		e.Spawn("recv", func(p *Proc) {
			for i := 0; i < count; i++ {
				v, ok := q.Recv(p)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		e.Spawn("send", func(p *Proc) {
			for i := 0; i < count; i++ {
				q.Send(p, i)
				if i%3 == 0 {
					p.Sleep(time.Microsecond)
				}
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		if len(got) != count {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a unit-capacity resource held for d by k processes finishes the
// batch at exactly k*d (perfect serialization, no loss, no overlap).
func TestQuickResourceSerialization(t *testing.T) {
	f := func(k, dMicro uint8) bool {
		workers := int(k%10) + 1
		d := Duration(int(dMicro)+1) * time.Microsecond
		e := NewEngine(3)
		r := NewResource(e, "dev", 1)
		var last Time
		for i := 0; i < workers; i++ {
			e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				r.Hold(p, 1, d)
				if p.Now() > last {
					last = p.Now()
				}
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		return last == Time(int64(workers)*int64(d))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTraceAcrossRuns(t *testing.T) {
	run := func() []Record {
		rec := &Recorder{}
		e := NewEngine(42)
		e.SetTracer(rec)
		q := NewQueue[int](e, "q", 3)
		r := NewResource(e, "r", 2)
		for i := 0; i < 6; i++ {
			i := i
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Sleep(Duration(e.Rand().Intn(1000)) * time.Microsecond)
				r.Hold(p, 1, time.Millisecond)
				q.Send(p, i)
				p.Trace("sent", fmt.Sprint(i))
			})
		}
		e.Spawn("drain", func(p *Proc) {
			for i := 0; i < 6; i++ {
				v, _ := q.Recv(p)
				p.Trace("got", fmt.Sprint(v))
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return rec.Records
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("trace differs between identical runs")
	}
}

func TestGate(t *testing.T) {
	e := NewEngine(1)
	g := NewGate(e, false)
	var passedAt []Time
	for i := 0; i < 3; i++ {
		e.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			g.Wait(p)
			passedAt = append(passedAt, p.Now())
		})
	}
	e.Spawn("opener", func(p *Proc) {
		p.Sleep(4 * time.Millisecond)
		g.Open()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(passedAt) != 3 {
		t.Fatalf("passed = %v", passedAt)
	}
	for _, at := range passedAt {
		if at != Time(4*1e6) {
			t.Fatalf("passed at %v, want 4ms", at)
		}
	}
}

func TestShutdownReapsDaemons(t *testing.T) {
	e := NewEngine(1)
	q := NewQueue[int](e, "daemon-q", 0)
	for i := 0; i < 5; i++ {
		e.Spawn(fmt.Sprintf("daemon%d", i), func(p *Proc) {
			for {
				if _, ok := q.Recv(p); !ok {
					return
				}
			}
		})
	}
	e.Spawn("work", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if e.LiveProcs() != 5 {
		t.Fatalf("live = %d, want 5 parked daemons", e.LiveProcs())
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("live after shutdown = %d", e.LiveProcs())
	}
}

func TestShutdownHandlesUnstartedProcs(t *testing.T) {
	e := NewEngine(1)
	e.Spawn("stopper", func(p *Proc) {
		e.Stop()
		// Spawn after Stop: the start event will never fire.
		e.Spawn("never-started", func(p *Proc) { p.Sleep(time.Hour) })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("live = %d after shutdown", e.LiveProcs())
	}
}

// endOrderTracer records the name of every proc.end and, for each, whether
// the process a dying defer spawned during Shutdown had already been retired.
type endOrderTracer struct {
	ends     []string
	late     *Proc
	lateDone []bool
}

func (tr *endOrderTracer) Trace(_ Time, kind, who, _ string) {
	if kind == "proc.end" {
		tr.ends = append(tr.ends, who)
		tr.lateDone = append(tr.lateDone, tr.late != nil && tr.late.done)
	}
}

// TestShutdownLiveListPidOrder churns coroutine processes and flows through
// spawn, end and recycle, so recycled Procs take new, higher pids, then
// stops with long-lived processes of both kinds parked and a few never
// started. BlockedProcs must list every live process, and Shutdown must end
// them in ascending pid order — a process spawned by a dying defer after
// every older one — and leave nothing live.
func TestShutdownLiveListPidOrder(t *testing.T) {
	e := NewEngine(1)
	tr := &endOrderTracer{}
	e.SetTracer(tr)
	q := NewQueue[int](e, "never", 0)
	pid := map[string]int{}
	spawn := func(name string, fn func(*Proc)) { pid[name] = e.Spawn(name, fn).ID() }
	spawnFlow := func(name string, step func(*Proc, int)) { pid[name] = e.SpawnFlow(name, step).ID() }
	var live []string
	spawn("spawner", func(p *Proc) {
		for i := 0; i < 200; i++ {
			p.Sleep(time.Microsecond)
			d := Duration(i%4) * time.Microsecond
			spawn(fmt.Sprintf("short%d", i), func(p *Proc) { p.Sleep(d) })
			slept := false
			spawnFlow(fmt.Sprintf("shortflow%d", i), func(p *Proc, _ int) {
				if !slept {
					slept = true
					p.FlowSleep(d)
					return
				}
				p.FlowEnd()
			})
			if i%10 != 5 {
				continue
			}
			name := fmt.Sprintf("daemon%d", i)
			live = append(live, name)
			dying := i%20 == 5
			spawn(name, func(p *Proc) {
				if dying {
					defer func() {
						late := e.Spawn("late-"+name, func(*Proc) {})
						if e.last != late {
							t.Errorf("%s: process spawned during Shutdown is not the tail of the live list", name)
						}
						if tr.late == nil {
							tr.late = late
						}
					}()
				}
				q.Recv(p)
			})
			name = fmt.Sprintf("parked%d", i)
			live = append(live, name)
			spawnFlow(name, func(p *Proc, _ int) { p.FlowPark("test", "idle") })
		}
	})
	spawn("stopper", func(p *Proc) {
		p.Sleep(time.Millisecond)
		e.Stop()
		spawn("unstarted", func(*Proc) {})
		spawnFlow("unstartedflow", func(*Proc, int) {})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	live = append(live, "unstarted", "unstartedflow")
	if e.LiveProcs() != len(live) {
		t.Fatalf("LiveProcs = %d, want %d", e.LiveProcs(), len(live))
	}
	blocked := e.BlockedProcs()
	if len(blocked) != len(live) {
		t.Fatalf("BlockedProcs lists %d processes, want %d: %v", len(blocked), len(live), blocked)
	}
	listed := map[string]bool{}
	for _, b := range blocked {
		listed[b[:strings.Index(b, ":")]] = true
	}
	for _, name := range live {
		if !listed[name] {
			t.Errorf("BlockedProcs omits live process %s", name)
		}
	}
	prev := 0
	for p := e.first; p != nil; p = p.nextLive {
		if p.id <= prev {
			t.Fatalf("live list out of pid order: %d after %d", p.id, prev)
		}
		prev = p.id
	}

	atStop := len(tr.ends)
	e.Shutdown()
	if e.LiveProcs() != 0 || e.first != nil || e.last != nil {
		t.Fatalf("after Shutdown: LiveProcs = %d, list empty = %v", e.LiveProcs(), e.first == nil && e.last == nil)
	}
	ends := tr.ends[atStop:]
	// The unstarted processes, and those the dying defers spawned, are
	// retired without a proc.end; every other live process emits one.
	if want := len(live) - 2; len(ends) != want {
		t.Fatalf("Shutdown emitted %d proc.end records, want %d: %v", len(ends), want, ends)
	}
	for i := 1; i < len(ends); i++ {
		if pid[ends[i]] <= pid[ends[i-1]] {
			t.Fatalf("Shutdown ended %s (pid %d) after %s (pid %d)", ends[i], pid[ends[i]], ends[i-1], pid[ends[i-1]])
		}
	}
	if tr.late == nil || !tr.late.done {
		t.Fatal("the process spawned by a dying defer was not retired")
	}
	for i, done := range tr.lateDone[atStop:] {
		if done {
			t.Fatalf("the process spawned by a dying defer was retired before %s", ends[i])
		}
	}
}

// TestProcSizeClass guards Proc's allocation size class. With the live-list
// links a Proc is 144 bytes, a size class of its own; a field that pushes it
// into the next class (160 bytes) raises every run's allocation per process.
func TestProcSizeClass(t *testing.T) {
	if s := unsafe.Sizeof(Proc{}); s > 144 {
		t.Fatalf("unsafe.Sizeof(Proc{}) = %d bytes, want <= 144", s)
	}
}
