package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// seqProg is a generated multi-process program whose processes run runs of
// sleeps with side effects between them. It is executed twice, once with
// plain Sleep loops and once with SleepSeq, and both executions must be
// indistinguishable (see runSeqProg).
type seqProg struct {
	procs    [][]seqSeg
	events   int   // shared one-shot events that steps fire and segments wait on
	perturb  int64 // perturbation seed; < 0 leaves perturbation off
	pauseAt  Time  // RunUntil(pauseAt) before running to the end; < 0 = none
	shutAt   Time  // RunUntil(shutAt) and then Shutdown mid-run; < 0 = none
	children int   // sleeps per spawned child
}

// seqSeg is one run of sleeps, then an optional wait on a shared event
// outside the run — as the mpi drain leaves its sequence to WaitIdle.
type seqSeg struct {
	steps []seqStep
	wait  int // index of the event waited on after the run; -1 = none
}

// seqStep is one call of the step function: its side effects, then the sleep
// it returns.
type seqStep struct {
	d     Duration // zero and negative durations included
	spawn bool     // spawn a child process
	fire  int      // event to fire; -1 = none
	send  bool     // send on the shared queue
	stop  bool     // Engine.Stop from inside the step
}

// byteSrc turns fuzz input into bounded choices; exhausted input reads 0.
type byteSrc struct{ b []byte }

func (s *byteSrc) next(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0]) % n
	s.b = s.b[1:]
	return v
}

// seqDurations are the generated sleep lengths: small, so that processes
// collide on the same instants, with zero and negative values.
var seqDurations = []Duration{-3, 0, 0, 1, 2, 3, 5, 8}

// genSeqProg builds a program from input bytes.
func genSeqProg(in []byte) seqProg {
	s := &byteSrc{in}
	g := seqProg{
		events:   1 + s.next(3),
		perturb:  -1,
		pauseAt:  -1,
		shutAt:   -1,
		children: s.next(4),
	}
	if s.next(2) == 1 {
		g.perturb = int64(s.next(256))
	}
	switch s.next(3) {
	case 1:
		g.pauseAt = Time(s.next(30))
	case 2:
		g.shutAt = Time(s.next(30))
	}
	nprocs := 1 + s.next(5)
	for i := 0; i < nprocs; i++ {
		var segs []seqSeg
		for n := 1 + s.next(3); n > 0; n-- {
			seg := seqSeg{wait: s.next(g.events+1) - 1}
			for m := s.next(8); m > 0; m-- {
				seg.steps = append(seg.steps, seqStep{
					d:     seqDurations[s.next(len(seqDurations))],
					spawn: s.next(6) == 0,
					fire:  s.next(2*g.events+1) - g.events - 1,
					send:  s.next(4) == 0,
					stop:  s.next(12) == 0,
				})
			}
			segs = append(segs, seg)
		}
		g.procs = append(g.procs, segs)
	}
	return g
}

// seqOutcome is everything observable about one execution.
type seqOutcome struct {
	Log         []string
	Fingerprint uint64
	Records     int
	Events      uint64
	Now         Time
	Err         string
	Live        int
}

// runSeqProg executes g with SleepSeq (seq) or with the equivalent Sleep
// loop, and returns what it observed.
func runSeqProg(g seqProg, seq bool) seqOutcome {
	e := NewEngine(7)
	rec := &Recorder{}
	e.SetTracer(rec)
	var log []string
	note := func(format string, args ...any) {
		log = append(log, fmt.Sprintf("%v ", e.Now())+fmt.Sprintf(format, args...))
	}
	events := make([]*Event, g.events)
	for i := range events {
		events[i] = NewEvent(e)
	}
	q := NewQueue[int](e, "q", 0)
	sends := 0

	// sleeps runs one run of sleeps, where step(i) performs step i's side
	// effects and returns its sleep.
	sleeps := func(p *Proc, n int, step func(i int) Duration) {
		i := 0
		next := func() (Duration, bool) {
			if i >= n {
				if i++; i > n+1 {
					note("%s: step function called after it ended the run", p.Name())
				}
				return 0, false
			}
			i++
			return step(i - 1), true
		}
		if seq {
			p.SleepSeq(next)
			return
		}
		for d, ok := next(); ok; d, ok = next() {
			p.Sleep(d)
		}
	}
	child := func(name string) func(*Proc) {
		return func(p *Proc) {
			defer note("%s exits", name)
			sleeps(p, g.children, func(i int) Duration {
				note("%s step %d", name, i)
				return Duration(i%3 - 1)
			})
		}
	}
	senders := len(g.procs)
	for pi, segs := range g.procs {
		name := fmt.Sprintf("p%d", pi)
		e.Spawn(name, func(p *Proc) {
			defer note("%s exits", name)
			for si, seg := range segs {
				sleeps(p, len(seg.steps), func(i int) Duration {
					st := seg.steps[i]
					note("%s seg %d step %d", name, si, i)
					if st.spawn {
						e.Spawn(fmt.Sprintf("%s.%d.%d", name, si, i), child(fmt.Sprintf("%s.%d.%d", name, si, i)))
					}
					if st.fire >= 0 {
						events[st.fire].Fire()
					}
					if st.send {
						sends++
						q.TrySend(sends)
					}
					if st.stop {
						e.Stop()
					}
					return st.d
				})
				if seg.wait >= 0 {
					events[seg.wait].Wait(p)
					note("%s woke on event %d", name, seg.wait)
				}
			}
			// The last sender to finish closes the queue, releasing the
			// consumer.
			if senders--; senders == 0 {
				q.Close()
			}
		})
	}
	e.Spawn("consumer", func(p *Proc) {
		for {
			v, ok := q.Recv(p)
			if !ok {
				return
			}
			note("consumer got %d", v)
		}
	})

	if g.perturb >= 0 {
		e.EnablePerturbation(g.perturb)
	}
	var err error
	runs := 0
	drive := func(deadline Time) {
		for {
			runs++
			if deadline >= 0 {
				err = e.RunUntil(deadline)
			} else {
				err = e.Run()
			}
			if err != nil || !e.Stopped() || runs > 1000 {
				return
			}
		}
	}
	switch {
	case g.shutAt >= 0:
		drive(g.shutAt)
		note("shutdown")
	case g.pauseAt >= 0:
		drive(g.pauseAt)
		note("paused with %d live", e.LiveProcs())
		drive(-1)
	default:
		drive(-1)
	}
	out := seqOutcome{Fingerprint: rec.Fingerprint(), Records: len(rec.Records), Events: e.Events(), Now: e.Now(), Live: e.LiveProcs()}
	if err != nil {
		out.Err = err.Error()
	}
	e.Shutdown()
	out.Log = log
	return out
}

// checkSeqProg requires the two executions of g to be indistinguishable.
func checkSeqProg(t *testing.T, g seqProg) {
	t.Helper()
	loop, seq := runSeqProg(g, false), runSeqProg(g, true)
	if !reflect.DeepEqual(loop, seq) {
		t.Fatalf("SleepSeq diverges from the Sleep loop for %+v:\nloop: %+v\nseq:  %+v\nloop log:\n%s\nseq log:\n%s",
			g, loop, seq, strings.Join(loop.Log, "\n"), strings.Join(seq.Log, "\n"))
	}
}

// TestSleepSeqMatchesSleepLoop runs generated programs twice, with plain
// Sleep loops and with SleepSeq, and requires the same trace fingerprint,
// dispatched-event count, end time, error and side-effect order. The programs
// cover perturbation on and off, zero and negative sleeps, spawns, Fires,
// queue sends and Stop from inside a step, RunUntil mid-sequence followed by
// a resumed run, and Shutdown mid-sequence.
func TestSleepSeqMatchesSleepLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	seen := map[string]bool{}
	for i := 0; i < 400; i++ {
		in := make([]byte, 24+rng.Intn(200))
		rng.Read(in)
		g := genSeqProg(in)
		seen[fmt.Sprintf("perturb=%v", g.perturb >= 0)] = true
		seen[fmt.Sprintf("pause=%v shut=%v", g.pauseAt >= 0, g.shutAt >= 0)] = true
		checkSeqProg(t, g)
	}
	for _, k := range []string{"perturb=true", "perturb=false", "pause=false shut=false", "pause=true shut=false", "pause=false shut=true"} {
		if !seen[k] {
			t.Errorf("no generated program covered %s", k)
		}
	}
}

// TestSleepSeqHandsOffNoCoroutine pins the point of SleepSeq: processes that
// sleep in lockstep wake each other's steps without switching coroutines.
func TestSleepSeqHandsOffNoCoroutine(t *testing.T) {
	switches := func(seq bool) uint64 {
		e := NewEngine(1)
		for i := 0; i < 8; i++ {
			e.Spawn("p", func(p *Proc) {
				n := 0
				next := func() (Duration, bool) { n++; return time.Microsecond, n <= 100 }
				if seq {
					p.SleepSeq(next)
					return
				}
				for d, ok := next(); ok; d, ok = next() {
					p.Sleep(d)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		defer e.Shutdown()
		return e.switches
	}
	loop, seq := switches(false), switches(true)
	if loop < 800 || seq > 16 {
		t.Fatalf("coroutine resumes: Sleep loop %d, SleepSeq %d; want >= 800 and <= 16", loop, seq)
	}
}

// TestSleepSeqPanicBlamesItsProcess checks that a step panicking while
// another process holds the baton fails the run in the name of the process
// whose step it was, and that the run's other processes are unaffected.
func TestSleepSeqPanicBlamesItsProcess(t *testing.T) {
	e := NewEngine(1)
	var otherDone bool
	e.Spawn("other", func(p *Proc) {
		// Wakes at every instant the stepper does, so it holds the baton
		// when the stepper's wake comes up.
		for i := 0; i < 5; i++ {
			p.Sleep(time.Microsecond)
		}
		otherDone = true
	})
	e.Spawn("stepper", func(p *Proc) {
		n := 0
		p.SleepSeq(func() (Duration, bool) {
			if n++; n == 3 {
				panic("boom")
			}
			return time.Microsecond, true
		})
		t.Error("SleepSeq returned after its step panicked")
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `process "stepper" panicked: boom`) {
		t.Fatalf("Run error = %v, want the stepper's panic", err)
	}
	if otherDone {
		t.Error("the run went on after the failure")
	}
	e.Shutdown()
	if e.LiveProcs() != 0 {
		t.Fatalf("%d processes live after Shutdown", e.LiveProcs())
	}
}

// TestSleepSeqRecycledProcHasNoSequence checks that a process killed in the
// middle of a SleepSeq leaves nothing behind: Shutdown unwinds its coroutine
// like any parked process's, rather than retiring it as a flow, and the next
// life of its Proc has no sequence.
func TestSleepSeqRecycledProcHasNoSequence(t *testing.T) {
	base := settledGoroutines()
	e := NewEngine(1)
	first := e.Spawn("first", func(p *Proc) {
		p.SleepSeq(func() (Duration, bool) { return 1, true })
	})
	if err := e.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if first.step == nil {
		t.Fatal("the endless sequence is not in progress")
	}
	// Shutdown unwinds "first" like any parked process.
	e.Shutdown()
	if first.step != nil || e.LiveProcs() != 0 {
		t.Fatalf("after Shutdown: seq set %v, %d live", first.step != nil, e.LiveProcs())
	}
	waitGoroutines(t, base)

	e = NewEngine(1)
	var woke int
	p1 := e.Spawn("short", func(p *Proc) {
		n := 0
		p.SleepSeq(func() (Duration, bool) { n++; return 1, n < 3 })
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	p2 := e.Spawn("plain", func(p *Proc) {
		p.Sleep(1)
		woke++
		p.Sleep(1)
		woke++
	})
	if p2 != p1 {
		t.Fatal("the second process did not recycle the first one's Proc")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woke != 2 {
		t.Fatalf("recycled process woke %d times, want 2", woke)
	}
	e.Shutdown()
}

// FuzzSleepSeqMatchesSleepLoop is the generative form of
// TestSleepSeqMatchesSleepLoop: every input decodes to a program (see
// genSeqProg) whose two executions must agree.
func FuzzSleepSeqMatchesSleepLoop(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{2, 3, 1, 9, 2, 17, 4, 2, 1, 0, 5, 3, 2, 9, 0, 0, 1, 7, 3, 3, 2, 1})
	f.Add([]byte{1, 0, 2, 4, 4, 2, 7, 0, 0, 0, 1, 6, 6, 1, 1, 2, 3, 4, 5, 0, 0, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		checkSeqProg(t, genSeqProg(in))
	})
}
