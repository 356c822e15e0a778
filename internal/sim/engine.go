// Package sim implements a deterministic discrete-event simulation kernel.
//
// The kernel drives "processes" — ordinary Go functions running in their own
// coroutines — in strict cooperative lockstep: exactly one process executes at
// a time, and control returns to the engine whenever a process blocks on a
// simulated operation (Sleep, Event.Wait, Queue.Recv, Resource.Acquire, ...).
// Virtual time only advances between events, so simulations are fully
// deterministic: the same configuration and seed produce the same event trace
// and the same virtual timings on every run, regardless of GOMAXPROCS.
//
// All higher layers of this repository (the InfiniBand fabric, the GigE
// network, the FTB backplane, disks, file systems, the MPI runtime, and the
// migration framework itself) are built on this kernel.
//
// # Hot path
//
// The kernel is engineered so that the steady-state cost of an event is a few
// pointer moves and at most two coroutine switches, with no allocation:
//
//   - events carry resume targets (process, token, reason) inline, so waking
//     a process allocates no closure;
//   - retired events are recycled through a freelist;
//   - future events sit in a typed binary heap (eventHeap) compared by an
//     inlined before(a, b), with no interface Less/Swap call per step;
//   - few of them reach it: an event due after now is chained in O(1)
//     behind the tail of the delay lane holding its delay (t − now), and
//     only each lane's head sits in the heap; when a head pops, its
//     successor takes its place with one down. now never decreases, so a
//     lane is already in (t, seq) order. Six delays cover 92% of a
//     fig7-shaped LU.C.64 op's future events, and a 16-lane table took 84%
//     of its heap pushes, cutting BenchmarkDelayMix (fig7's delay mix at
//     60 pending events) from 58 to 20 ns per event on a 2-vCPU host;
//   - live processes are an intrusive doubly-linked list in pid order
//     (Proc.prevLive/nextLive), so spawn and exit are a few pointer writes
//     with no map hashing, and Shutdown unwinds the head until it is empty;
//     retired Procs reuse nextLive as their freelist link, so recycling one
//     allocates nothing either;
//   - wakeups scheduled for the current instant — the overwhelmingly common
//     case: queue handoffs, event broadcasts, resource admissions — bypass
//     the time-ordered heap entirely and go through a FIFO ready ring, which
//     batches any number of already-runnable processes at O(1) each;
//   - processes are coroutines (iter.Pull), and dispatch is baton passing
//     with no engine goroutine: whichever holds the baton — the Run caller,
//     a process blocked in a simulated operation, or a pooled coroutine
//     between lives — runs the event loop itself (see Engine.dispatch). An
//     event that resumes the holder returns to it with no switch at all (a
//     process whose own Sleep expires next just keeps running); one that
//     resumes another process yields to the Run caller, which switches into
//     the target (see Engine.resume). Coroutine switches never enter the Go
//     scheduler: no run queue, no wakeup of an idle P, no futex. Against
//     goroutines handing off over channels, BenchmarkProcessPingPong went
//     from 827–1,183 to 394–878 ns/op on a 2-vCPU host (more in
//     docs/ARCHITECTURE.md §8);
//   - work that never blocks mid-computation is driven from the event loop
//     by one step mechanism, Proc.step: the engine calls the step at each
//     wake on whichever coroutine holds the baton (Engine.resumeFlow), so
//     the wake costs a call instead of a handoff into the process and back.
//     A flow (Engine.SpawnFlow, ib's wire work, MPI's receive pumps and
//     Sendrecv send halves) is stepped for its whole life; a coroutine process
//     is stepped while it is blocked with Proc.Block, after parking with
//     any Flow* primitive, until the step calls EndStep. SleepSeq (MPI's
//     launch, drain, teardown and rebuild loops) and MPI rank programs (a
//     rank's Recv/Compute/Send/Sendrecv ops, synchronous sends on the wire
//     included, an LU sweep or a BT/SP iteration at a time) run this way.
//     On a 256-rank LU.C migration op SleepSeq took the trampoline's
//     coroutine resumes from 394,395 to 166,682 with the same 963,266
//     events; on a fig7-shaped LU.C.64 op (migration, then CR to ext3 and
//     PVFS) rank programs took them from 578,681 to 43,501 with the same
//     1,504,092 events, and on the fault-tolerant class S DST corpus from
//     about 27,000 to about 2,200 per scenario with the same ~65,000
//     events (Engine.Resumes counts them). The coroutine
//     primitives are the step forms followed by Proc.wait (Sleep is
//     FlowSleep + wait), so each primitive's register and grant logic
//     exists once.
//
// Pop order is still exactly (time, key, seq) — key is 0 unless schedule
// perturbation is on — so none of this is observable in simulation results;
// see TestGoldenTraceUnchanged in internal/exp.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"ibmig/internal/payload"
)

// epochEveryEvents is how often (in dispatched events, power of two) the run
// loop closes a payload reclamation epoch. Purely host-side: epoch closes
// gate when retired extent nodes may be reused, never simulated behaviour.
const epochEveryEvents = 1 << 16

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is re-exported from package time; all simulated durations use it.
type Duration = time.Duration

// Seconds returns the time as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Milliseconds returns the time as floating-point milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / 1e6 }

// Sub returns the duration between two points in virtual time.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Add returns the time advanced by d.
func (t Time) Add(d Duration) Time { return t + Time(d) }

func (t Time) String() string { return Duration(t).String() }

// wake reasons delivered to a parked process.
const (
	wakeSignal  = iota // the condition the process waited on was met
	wakeTimeout        // a WaitTimeout deadline expired
	wakeKill           // engine shutdown: unwind the process coroutine
	wakeStart          // a spawned process's start event (see Engine.Spawn)
	wakeRetire         // shutdown of an idle pooled coroutine (see Proc.suspend)
)

// killSentinel is the panic value used to unwind killed processes.
type killSentinel struct{}

// event is one scheduled occurrence. Two flavours share the struct: callback
// events run fn; resume events (fn == nil) wake process p if its wait token
// still matches. Resume events carry their target inline precisely so that
// the wake path allocates nothing.
type event struct {
	t      Time
	seq    uint64
	key    uint64 // perturbation tie-break; always 0 when perturbation is off
	fn     func()
	p      *Proc
	token  uint64
	reason int32
	lane   int32  // 1 + index of the delay lane ev is queued in; 0 if none
	next   *event // freelist link; in a delay lane, the event queued after ev
}

// delayLaneBits sizes the delay-lane table: 1<<delayLaneBits lanes. Future
// events arrive with few distinct delays — on a fig7-shaped LU.C.64 op six
// delays cover 92% of them, on a 256-rank LU.C op nine cover 99.6% — so a
// small table catches nearly all of them.
const delayLaneBits = 4

// delayLane is a FIFO chain of future events pushed with one delay (t − now
// at the push), threaded through event.next from the head, which alone sits
// in the heap, to tail. now never decreases, so events pushed with equal
// delays are pushed in (t, seq) order and the chain is already sorted. An
// empty lane (tail nil) is claimed by the next delay that hashes to it.
type delayLane struct {
	delay Time
	tail  *event
}

// eventHeap is a binary min-heap of future events in pop order (see
// before): every future event not queued behind another in a delay lane,
// which keeps it to a few dozen entries. It is typed and inlined rather than
// container/heap's interface Less/Swap, which cost a dynamic call per
// comparison and per swap on every pop. Two alternatives were measured and
// were slower, so do not rebuild them: keeping the keys inline in 32-byte
// entries {t, key, seq, ev}, so a comparison touches no event, in a binary
// and in a 4-ary heap. On scale_lu256, three alternating bench runs each on
// a 2-vCPU host, this heap read 0.170–0.180 s wall per op, the inline binary
// heap 0.185–0.197 s and the inline 4-ary heap 0.183–0.198 s. (An earlier
// 4-ary heap of pointers measured no faster either.) Those reshape the heap;
// the delay lanes shrink it instead.
type eventHeap []*event

// before reports whether a pops before b: by time, then perturbation key,
// then scheduling order. seq is unique, so this is a strict total order and
// any correct heap pops events in exactly one sequence.
func before(a, b *event) bool {
	if a.t != b.t {
		return a.t < b.t
	}
	if a.key != b.key {
		return a.key < b.key
	}
	return a.seq < b.seq
}

// push adds ev to the heap.
func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !before(ev, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

// pop removes and returns the first event. The heap must not be empty.
func (h *eventHeap) pop() *event {
	s := *h
	n := len(s) - 1
	top, last := s[0], s[n]
	s[n] = nil
	*h = s[:n]
	if n > 0 {
		s[:n].down(0, last)
	}
	return top
}

// down places ev at slot i, or below it, moving smaller children up.
func (h eventHeap) down(i int, ev *event) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && before(h[c+1], h[c]) {
			c++
		}
		if !before(h[c], ev) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = ev
}

// init restores the heap order after keys were changed in place.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i])
	}
}

// Engine is a discrete-event simulation engine. Create one with NewEngine,
// add processes with Spawn, and execute with Run. An Engine must not be used
// from multiple OS threads concurrently; all concurrency is virtual. Distinct
// Engines are fully independent and may run concurrently (one engine per
// goroutine — see internal/exp.Map).
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap // future events, ordered by (t, key, seq); lane heads only
	lanes  [1 << delayLaneBits]delayLane
	ready  ring[*event] // events at exactly `now`, in seq order (the batch path)
	free   *event       // retired-event freelist
	rng    *rand.Rand

	handoff  *Proc  // process a yielding coroutine hands the baton to (see resume)
	switches uint64 // coroutine resumes made by the trampoline

	deadline   Time   // inclusive bound of the current RunUntil; -1 under Run
	dispatched uint64 // events executed, for events/sec reporting

	perturb *rand.Rand // schedule perturbation source; nil = off (the default)

	live    int // processes spawned and not yet finished
	nextPID int
	// flowFree and procFree are LIFO freelists of retired Procs, linked
	// through Proc.nextLive, which a retired Proc no longer uses for the live
	// list: flows are recycled by SpawnFlow, coroutine-backed Procs by Spawn.
	flowFree *Proc
	procFree *Proc

	// first/last are the ends of the live list, every process spawned and
	// not yet finished, linked through Proc.prevLive/nextLive. pids only grow
	// and newProc appends, so the list is in pid order; unlinking is O(1).
	first, last *Proc

	tracer  Tracer
	traced  bool           // tracer is not the default no-op (see SetTracer)
	failure error          // first process panic, aborts the run
	cbPanic *callbackPanic // callback panic caught off the Run caller's goroutine
	stopped bool

	obsData any              // opaque per-engine observability state (internal/obs)
	resObs  ResourceObserver // resource usage hook; nil when observability is off

	flushEvery uint64     // dispatch period of the flush hook; 0 = off
	flushFn    func(Time) // periodic host-side run-loop hook (see SetFlushHook)
}

// ResourceObserver receives a callback on every Resource usage transition
// (grant or release). Implementations must be pure host-side bookkeeping —
// no engine calls, no blocking — so that observing a run cannot change it.
type ResourceObserver interface {
	ResourceUsage(t Time, name string, used, capacity int64)
}

// NewEngine returns an engine with the given RNG seed. The seed fully
// determines every random choice made anywhere in the simulation.
func NewEngine(seed int64) *Engine {
	return &Engine{
		rng:    rand.New(rand.NewSource(seed)),
		tracer: nopTracer{},
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Resumes returns the number of coroutine resumes the engine's trampoline
// has made so far: the wakes that a step did not absorb, each costing two
// coroutine switches. Set beside Events, it shows how much of a run is
// stepped in engine context.
func (e *Engine) Resumes() uint64 { return e.switches }

// Events returns the number of events the engine has dispatched so far
// (including stale wakeups that were discarded). Benchmarks divide this by
// wall time to report kernel throughput in events/sec.
func (e *Engine) Events() uint64 { return e.dispatched }

// SetTracer installs a trace sink. Pass nil to disable tracing.
func (e *Engine) SetTracer(t Tracer) {
	if t == nil {
		t = nopTracer{}
	}
	_, nop := t.(nopTracer)
	e.tracer, e.traced = t, !nop
}

// Trace emits a trace record at the current virtual time.
func (e *Engine) Trace(kind, who, detail string) {
	e.tracer.Trace(e.now, kind, who, detail)
}

// SetObsData attaches opaque observability state to the engine (see
// internal/obs.Enable). Like the engine itself it is engine-local: one
// collector per engine under exp.Map.
func (e *Engine) SetObsData(v any) { e.obsData = v }

// ObsData returns the state attached with SetObsData, or nil.
func (e *Engine) ObsData() any { return e.obsData }

// SetResourceObserver installs the resource usage hook. Pass nil to disable
// (the default); the disabled path is a single nil check per transition.
func (e *Engine) SetResourceObserver(o ResourceObserver) { e.resObs = o }

// SetFlushHook installs fn to run in engine context every `every` dispatched
// events, like the payload reclamation epoch the run loop already closes
// periodically. The hook is strictly host-side: it must not schedule events,
// wake processes or otherwise touch the simulation — it exists so live
// telemetry (heartbeats, arena gauges, stream flushes) has a periodic anchor
// inside long event storms. Pass fn nil to disable (the default); the
// disabled path is one nil check per dispatched event, and installing a hook
// cannot change simulated results (TestFlushHookPassive pins this).
func (e *Engine) SetFlushHook(every uint64, fn func(Time)) {
	if every == 0 {
		every = 1 << 12
	}
	e.flushEvery, e.flushFn = every, fn
}

// allocEvent takes an event from the freelist, or allocates one.
func (e *Engine) allocEvent() *event {
	ev := e.free
	if ev == nil {
		return &event{}
	}
	e.free = ev.next
	ev.next = nil
	return ev
}

// freeEvent resets ev and returns it to the freelist.
func (e *Engine) freeEvent(ev *event) {
	*ev = event{next: e.free}
	e.free = ev
}

// pushEvent enqueues ev: onto the ready ring when due now (no heap traffic),
// behind the tail of its delay lane when that lane holds its delay (no heap
// traffic either), onto the time-ordered heap otherwise. Events at equal
// times fire in scheduling order on every path, so the split is invisible to
// the simulation.
//
// With perturbation enabled every event instead goes through the heap with a
// random tie-break key, so same-instant events pop in a seeded-shuffled order
// (see EnablePerturbation).
func (e *Engine) pushEvent(ev *event) {
	e.seq++
	ev.seq = e.seq
	if ev.t <= e.now {
		ev.t = e.now
		if e.perturb == nil {
			e.ready.push(ev)
			return
		}
	}
	if e.perturb != nil {
		ev.key = e.perturb.Uint64()
	} else if e.lanePush(ev) {
		return
	}
	e.events.push(ev)
}

// lanePush threads ev, due after now, into the delay lane its delay hashes
// to. A lane holding that delay takes ev behind its tail, in O(1) with no
// sift, and lanePush reports true: ev is queued. An empty
// lane is claimed for the delay with ev as its head, and one holding another
// delay is left alone; either way lanePush reports false and ev goes on the
// heap.
func (e *Engine) lanePush(ev *event) bool {
	d := ev.t - e.now
	i := laneIndex(d)
	l := &e.lanes[i]
	chained := l.tail != nil
	if chained {
		if l.delay != d {
			return false
		}
		l.tail.next = ev
	}
	l.delay, l.tail, ev.lane = d, ev, i+1
	return chained
}

// laneIndex hashes a delay to its lane (Fibonacci hashing: the top bits of
// the product with 2^64/φ), which spreads round delays such as 2 µs and
// 10 ms that a modulus would put in one lane.
func laneIndex(d Time) int32 {
	return int32(uint64(d) * 0x9e3779b97f4a7c15 >> (64 - delayLaneBits))
}

// unthreadLanes moves every event queued behind a lane head onto the heap
// and frees every lane, for when lane order no longer implies pop order.
func (e *Engine) unthreadLanes() {
	for _, ev := range e.events { // the heads: range reads e.events once
		for ev != nil && ev.lane != 0 {
			next := ev.next
			ev.next, ev.lane = nil, 0
			if next != nil {
				e.events = append(e.events, next)
			}
			ev = next
		}
	}
	e.lanes = [len(e.lanes)]delayLane{}
	e.events.init()
}

// EnablePerturbation turns on schedule perturbation: events scheduled for the
// same virtual instant fire in a deterministic seeded shuffle instead of
// scheduling order. Timestamps never change — only the tie-break among
// simultaneous events — so any ordering the protocol under test relies on must
// be enforced by explicit synchronization, which is exactly what the
// internal/check harness probes. The shuffle is a pure function of the seed:
// the same (engine seed, perturbation seed) pair replays identically.
//
// Call before Run. Events already queued (e.g. the start events of processes
// spawned during setup) are re-keyed so the shuffle covers them too. When
// never called, the engine is bit-identical to one without this feature (the
// golden-trace tests in internal/exp and internal/sim pin this).
func (e *Engine) EnablePerturbation(seed int64) {
	e.perturb = rand.New(rand.NewSource(seed))
	// Migrate the delay lanes and the ready ring onto the heap: both are
	// FIFO and cannot express a shuffled order.
	e.unthreadLanes()
	for e.ready.len() > 0 {
		ev := e.ready.pop()
		ev.key = e.perturb.Uint64()
		e.events.push(ev)
	}
	for _, ev := range e.events {
		ev.key = e.perturb.Uint64()
	}
	e.events.init()
}

// Perturbed reports whether schedule perturbation is enabled.
func (e *Engine) Perturbed() bool { return e.perturb != nil }

// schedule enqueues fn to run at time t (>= now).
func (e *Engine) schedule(t Time, fn func()) {
	ev := e.allocEvent()
	ev.t, ev.fn = t, fn
	e.pushEvent(ev)
}

// After schedules fn to run after duration d of virtual time. It may be
// called from process context or from another scheduled callback. fn runs in
// engine context and must not block on simulated operations; to do blocking
// work, have fn spawn a process.
func (e *Engine) After(d Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	e.schedule(e.now.Add(d), fn)
}

// Spawn creates a new process executing fn and schedules it to start at the
// current virtual time. It may be called before Run, from process context, or
// from a scheduled callback.
//
// Spawn is pooled end to end: retired Procs are recycled (struct and
// coroutine — the coroutine stays suspended between lives, see Proc.coro),
// and the start event is a plain resume bound to the current token, so
// steady-state process churn allocates nothing.
func (e *Engine) Spawn(name string, fn func(*Proc)) *Proc {
	p := e.newProc(&e.procFree, name, true)
	p.co.fn = fn
	e.scheduleResume(p, e.now, wakeStart)
	return p
}

// SpawnFlow creates a flow: a lightweight process driven as a state machine
// by engine callbacks instead of a coroutine. step is invoked once when the
// flow's start event fires and again on every wakeup; it blocks by calling a
// Flow* primitive (FlowSleep, Resource.FlowAcquireStart/Retry) and returning,
// and terminates with FlowEnd.
//
// A flow is trace-equivalent to a Spawned process: it occupies one pid, emits
// the same proc.start/proc.end records, counts toward LiveProcs, appears in
// deadlock reports, and pushes events in exactly the same order — so
// converting a process to a flow cannot change simulation results (see
// TestFlowMatchesProcTrace). What it saves is the host-side cost: no
// coroutine, no switches, no per-spawn allocation (retired flow Procs
// are recycled through a freelist). A pointer-shaped Flow, such as a struct
// pointer with a Step method, is stored without allocating.
//
// An empty name defers naming to the flow, which must then be a FlowNamer:
// the name is formatted only when something reads it, so an untraced run of
// many short-lived or dormant flows never builds their names.
func (e *Engine) SpawnFlow(name string, f Flow) *Proc {
	p := e.newProc(&e.flowFree, name, false)
	e.startFlow(p, f)
	return p
}

// SpawnFlowIn is SpawnFlow in a Proc its caller owns: p is zero (never
// spawned) or Idle, and typically embedded in the state the flow drives, so
// the flow costs no allocation and its Proc no freelist round trip. The
// life p starts is SpawnFlow's — same pid, start event and proc.start/
// proc.end records — and it bumps p's token, so a wake addressed to an
// earlier life is dropped. When the flow ends p stays with its owner, which
// may start another life in it; it never enters the engine's freelist, so
// SpawnFlow never hands it out. Spawning in a p that is still live panics.
func (e *Engine) SpawnFlowIn(p *Proc, name string, f Flow) {
	if !p.Idle() {
		panic("sim: SpawnFlowIn on live process " + p.procName())
	}
	p.e, p.owned = e, true
	e.beginLife(p, name)
	e.startFlow(p, f)
}

// startFlow gives a flow whose life has begun its step and schedules its
// start event: a plain resume bound to the current token, like Spawn's; the
// first wakeup of a flow doubles as its start (resumeFlow).
func (e *Engine) startFlow(p *Proc, f Flow) {
	p.step = f
	e.scheduleResume(p, e.now, wakeSignal)
}

// newProc begins a process life in a pooled Proc: it pops a retired one from
// free (procFree for coroutine Procs, flowFree for flows) or allocates one —
// with its coroutine state in the same allocation when coroutine is set —
// and hands it to beginLife.
func (e *Engine) newProc(free **Proc, name string, coroutine bool) *Proc {
	p := *free
	if p != nil {
		*free = p.nextLive
		p.nextLive = nil
	} else if coroutine {
		cp := &coProc{}
		p = &cp.p
		p.e, p.co = e, &cp.co
	} else {
		p = &Proc{e: e}
	}
	e.beginLife(p, name)
	return p
}

// beginLife is the one life-start path of Spawn, SpawnFlow and SpawnFlowIn:
// it retires any registration that survived p's previous life by bumping its
// token, and appends p to the live list under the next pid.
func (e *Engine) beginLife(p *Proc, name string) {
	p.token++
	p.started, p.done = false, false
	e.nextPID++
	p.name, p.id = name, e.nextPID
	e.live++
	p.prevLive = e.last
	if e.last != nil {
		e.last.nextLive = p
	} else {
		e.first = p
	}
	e.last = p
}

// unlinkLive drops p from the live list.
func (e *Engine) unlinkLive(p *Proc) {
	if p.prevLive != nil {
		p.prevLive.nextLive = p.nextLive
	} else {
		e.first = p.nextLive
	}
	if p.nextLive != nil {
		p.nextLive.prevLive = p.prevLive
	} else {
		e.last = p.prevLive
	}
	p.prevLive, p.nextLive = nil, nil
}

// endProc ends a process life, coroutine or flow: it marks p done, drops it
// from the live set and emits its proc.end record.
func (e *Engine) endProc(p *Proc) {
	p.done = true
	e.live--
	e.unlinkLive(p)
	if e.traced {
		e.tracer.Trace(e.now, "proc.end", p.procName(), "")
	}
}

// recycleFlow returns a finished flow Proc to the freelist, or to its owner
// if SpawnFlowIn started it. The token is deliberately not reset: it only
// ever grows, so wakeups addressed to a previous life can never match a
// recycled Proc.
func (e *Engine) recycleFlow(p *Proc) {
	p.step = nil
	p.name = ""
	p.blockKind, p.blockName = blockNone, ""
	if !p.owned {
		p.nextLive, e.flowFree = e.flowFree, p
	}
}

// runProc executes one life of process p: the body, panic conversion, and
// end-of-life bookkeeping, including returning the Proc to the pool.
func (e *Engine) runProc(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			if _, killed := r.(killSentinel); !killed && e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q panicked: %v", p.procName(), r)
			}
		}
		e.endProc(p)
		p.step = nil
		p.name = ""
		p.blockKind, p.blockName = blockNone, ""
		p.nextLive, e.procFree = e.procFree, p
	}()
	fn := p.co.fn
	p.co.fn = nil
	fn(p)
}

// resumeFlow runs p's step at a wake, in engine context, and reports whether
// p stays parked: a flow always does, a coroutine process until its step
// (see Proc.Block) calls EndStep, at which point the caller resumes the
// coroutine. A flow's first wake doubles as its start event (tracing
// proc.start, as dispatch does for a coroutine process's wakeStart). The
// token bump and the cleared block state mirror wait's on every wake; the
// coroutine's own wait bumps the token again when it resumes, which nothing
// observes, since tokens are only compared with captured values and a step
// cannot register p anywhere before it parks. A panic in the step is
// converted into the run failure exactly like a process panic: a flow gets
// its proc.end record, and a coroutine process stays parked until Shutdown
// unwinds it.
func (e *Engine) resumeFlow(p *Proc, reason int) (parked bool) {
	defer func() {
		if r := recover(); r != nil {
			if e.failure == nil {
				e.failure = fmt.Errorf("sim: process %q panicked: %v", p.procName(), r)
			}
			if p.co == nil && !p.done {
				e.endProc(p)
			}
			parked = true
		}
	}()
	if !p.started {
		p.started = true
		if e.traced {
			e.tracer.Trace(e.now, "proc.start", p.procName(), "")
		}
	}
	p.token++
	p.blockKind, p.blockName = blockNone, ""
	p.step.Step(p, reason)
	return p.co == nil || p.step != nil
}

// scheduleResume schedules a wakeup of p at time t, bound to p's current wait
// token. No closure is allocated: the target rides in the event itself.
func (e *Engine) scheduleResume(p *Proc, t Time, reason int) {
	ev := e.allocEvent()
	ev.t, ev.p, ev.token, ev.reason = t, p, p.token, int32(reason)
	e.pushEvent(ev)
}

// DeadlockError reports that the event queue drained while processes were
// still blocked on conditions that can no longer occur.
type DeadlockError struct {
	At      Time
	Blocked []string // "name: reason" for each blocked process
}

func (d *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: %d process(es) blocked: %v", d.At, len(d.Blocked), d.Blocked)
}

// Run executes events until the queue is empty or a process panics. It
// returns a *DeadlockError if processes remain blocked when the queue drains,
// or the panic (wrapped) if a process failed.
func (e *Engine) Run() error {
	return e.run(-1)
}

// RunUntil executes events with timestamps <= deadline and advances the
// clock to the deadline, never back: a deadline before Now leaves it there.
// Processes blocked at the deadline are not treated as deadlocked; the
// simulation can be resumed with another Run/RunUntil call.
func (e *Engine) RunUntil(deadline Time) error {
	return e.run(deadline)
}

// popEvent removes the globally next event by (t, key, seq). Both sources
// are individually ordered — the ready ring holds only current-time events in
// seq order, the heap is ordered by (t, key, seq) and holds the head of every
// delay lane, whose later events all pop after it — so comparing heads is
// enough. The ring is only used with perturbation off, when every key is 0.
func (e *Engine) popEvent() *event {
	if e.ready.len() == 0 || (len(e.events) > 0 && before(e.events[0], *e.ready.at(0))) {
		return e.popHeap()
	}
	return e.ready.pop()
}

// popHeap removes the heap's first event. When that is a delay lane's head,
// the lane's next event takes its place with one down and no pop, or, when
// it was the lane's last, the lane is freed for any delay.
func (e *Engine) popHeap() *event {
	top := e.events[0]
	if top.lane != 0 {
		if next := top.next; next != nil {
			top.next = nil
			e.events.down(0, next)
			return top
		}
		e.lanes[top.lane-1].tail = nil
	}
	return e.events.pop()
}

// run is the Run/RunUntil driver: the caller takes the baton, dispatches
// until the run ends, and reports the outcome.
func (e *Engine) run(deadline Time) error {
	e.stopped = false
	e.deadline = deadline
	e.dispatch(nil)
	if cp := e.cbPanic; cp != nil {
		e.cbPanic = nil
		panic(cp.v)
	}
	if e.failure != nil {
		return e.failure
	}
	if deadline < 0 && e.live > 0 && !e.stopped {
		return e.deadlock()
	}
	return nil
}

// dispatch is the event loop, run by whichever holds the baton: self is the
// holding process, or nil for the Run caller. For a process it returns the
// reason self was woken with — at once, with no switch, when the next event
// is self's own wakeup; otherwise after handing the baton to the process
// being resumed (a yield to the trampoline, which switches into it) and
// staying suspended until the trampoline resumes self. The Run caller is the
// trampoline itself. Stale wakeups are discarded, and callbacks and flows
// run in place.
//
// The run ends when the queue drains, on Stop, a failure, a callback panic,
// or the RunUntil deadline. The baton then goes home: the Run caller just
// returns 0; a process yields without a handoff and stays suspended until a
// later run resumes it or Shutdown unwinds it.
func (e *Engine) dispatch(self *Proc) int {
	for e.failure == nil && e.cbPanic == nil && !e.stopped && (e.ready.len() > 0 || len(e.events) > 0) {
		if e.deadline >= 0 && e.nextTime() > e.deadline {
			e.now = max(e.now, e.deadline)
			break
		}
		ev := e.popEvent()
		e.now = ev.t
		e.dispatched++
		if e.dispatched&(epochEveryEvents-1) == 0 {
			// Close a payload reclamation epoch periodically so extent nodes
			// retired by splice churn become reusable during long runs, not
			// only when their owning lifecycle ends (see payload.AdvanceEpoch).
			payload.AdvanceEpoch()
		}
		if e.flushFn != nil && e.dispatched%e.flushEvery == 0 {
			e.flushFn(e.now)
		}
		if fn := ev.fn; fn != nil {
			e.freeEvent(ev)
			e.callback(fn)
			continue
		}
		p, token, reason := ev.p, ev.token, int(ev.reason)
		e.freeEvent(ev)
		if p.done || p.token != token {
			continue // stale: e.g. a timeout firing after the event it guarded
		}
		if p.step != nil && e.resumeFlow(p, reason) {
			continue
		}
		if reason == wakeStart {
			p.started = true
			if e.traced {
				e.tracer.Trace(e.now, "proc.start", p.name, "")
			}
		}
		if p == self {
			return reason
		}
		p.reason = int32(reason)
		if self == nil {
			e.resume(p)
			return 0
		}
		e.handoff = p
		return self.suspend()
	}
	if self == nil {
		return 0
	}
	e.handoff = nil
	return self.suspend()
}

// callbackPanic carries the value of a panic raised by an engine callback.
type callbackPanic struct{ v any }

// callback runs an engine callback. The baton is usually on a process
// coroutine, where a panic would unwind into runProc and be misreported as a
// process failure (or, between lives, end the coroutine). Instead it is
// recorded, the run ends, and run re-raises the same value on the Run
// caller's goroutine.
func (e *Engine) callback(fn func()) {
	ok := false
	defer func() {
		if !ok {
			e.cbPanic = &callbackPanic{recover()}
		}
	}()
	fn()
	ok = true
}

// nextTime returns the timestamp of the next pending event. Call only while
// events remain.
func (e *Engine) nextTime() Time {
	if e.ready.len() > 0 {
		return (*e.ready.at(0)).t
	}
	return e.events[0].t
}

// Stop halts the run loop after the current event; remaining events stay
// queued and the run can be resumed.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether the last run was halted by Stop. The partitioned
// executor uses it to propagate one partition's Stop to the whole ensemble.
func (e *Engine) Stopped() bool { return e.stopped }

// At schedules fn to run at absolute virtual time t (clamped to now). The
// partitioned executor uses it to inject cross-partition deliveries at their
// precomputed arrival times; fn runs in engine context and must not block.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.schedule(t, fn)
}

// NextEventTime returns the timestamp of the earliest pending event, or
// (0, false) when no events are queued. The partitioned executor derives the
// next safe window horizon from it.
func (e *Engine) NextEventTime() (Time, bool) {
	if e.ready.len() == 0 && len(e.events) == 0 {
		return 0, false
	}
	return e.nextTime(), true
}

// BlockedProcs returns a sorted description of every live process and what it
// is blocked on — the payload of a DeadlockError, exposed so the partitioned
// executor can aggregate liveness reports across engines.
func (e *Engine) BlockedProcs() []string {
	var blocked []string
	for p := e.first; p != nil; p = p.nextLive {
		blocked = append(blocked, fmt.Sprintf("%s: %s", p.procName(), p.blockReason()))
	}
	sort.Strings(blocked)
	return blocked
}

func (e *Engine) deadlock() error {
	return &DeadlockError{At: e.now, Blocked: e.BlockedProcs()}
}

// LiveProcs returns the number of processes that have been spawned and have
// not yet finished.
func (e *Engine) LiveProcs() int { return e.live }

// Shutdown unwinds every still-blocked process coroutine. Call it once the
// simulation's result has been extracted (after Run/RunUntil/Stop) so that
// perpetual daemons — network pumps, backplane agents — do not leak
// goroutines across repeated simulations in one Go process. The engine must
// not be used afterwards.
func (e *Engine) Shutdown() {
	// A killed process coroutine takes the baton to unwind. With the engine
	// stopped, the dispatcher it reaches on the way out — the rest of its
	// park, or Proc.coro once the life ends — runs no event and yields the
	// baton straight back here.
	e.stopped = true
	// Unwind the head of the live list until it is empty: ascending pid
	// order (deterministic), and a process spawned by a dying defer joins
	// the tail, after every older one.
	for e.first != nil {
		victim := e.first
		if !victim.started {
			// Its start event never fired (the run stopped first). A fresh
			// Proc has no coroutine yet; a recycled one has its pooled
			// coroutine idle between lives, awaiting the life that now never
			// begins — retire it directly.
			if victim.co != nil {
				if victim.co.next != nil {
					victim.co.stop()
				}
				victim.co.fn = nil
			}
			victim.done = true
			e.live--
			e.unlinkLive(victim)
			continue
		}
		if victim.co == nil {
			// A started process with no coroutine is a flow; retiring one is
			// bookkeeping plus the same proc.end record a killed process
			// would emit.
			e.endProc(victim)
			continue
		}
		victim.reason = wakeKill
		e.resume(victim)
	}
	// Retire the idle pooled coroutines (including those of processes killed
	// above, which re-entered the pool on their way out).
	for p := e.procFree; p != nil; {
		next := p.nextLive
		p.co.stop()
		p.nextLive = nil
		p = next
	}
	e.procFree = nil
	// Flush buffered trace sinks (sim.Writer and friends) so records are not
	// lost when the process exits right after Shutdown.
	if f, ok := e.tracer.(interface{ Flush() error }); ok {
		_ = f.Flush()
	}
}
