package sim

// Proc is a simulated process: a coroutine whose execution is interleaved
// with all other processes under control of the Engine. All methods on Proc
// (and on the synchronization primitives that take a *Proc) must be called
// only from within the process's own function.
type Proc struct {
	e    *Engine
	name string
	id   int

	// token guards against stale wakeups. It is incremented every time the
	// process wakes; resume events capture the token current at scheduling
	// time and are dropped if it no longer matches.
	token uint64

	started bool
	done    bool
	// owned marks a flow Proc its caller owns (Engine.SpawnFlowIn): it is
	// never put on the engine's freelist.
	owned bool

	// blockKind codes what the process is blocked on (an index into
	// blockKinds), beside blockName, which names the primitive; blockReason
	// joins the two only for deadlock reports. A one-byte code packs beside
	// the flags, where a string would take two words.
	blockKind blockKind

	// reason is the wake reason of the resume the trampoline delivers next.
	// It is an int32 so that it packs beside the flags above.
	reason int32

	// co is the coroutine state, allocated with the Proc for coroutine
	// processes (Engine.Spawn) and nil for flows, so a flow's Proc carries
	// none of it (see coState).
	co *coState

	// step, when non-nil, is run by the engine at each wake in place of a
	// coroutine resume (see Engine.resumeFlow). A flow (Engine.SpawnFlow) is
	// driven by it for its whole life and has no coroutine at all; a
	// coroutine process installs one with Block (a SleepSeq, an MPI rank
	// program) until the step calls EndStep. The step parks with a Flow*
	// primitive and returns, so a wake costs a call: no switch and no stack,
	// only the events it schedules.
	step Flow

	blockName string

	// prevLive/nextLive link the process into the engine's live list while
	// it is spawned and not yet finished (see Engine.first). A retired Proc
	// reuses nextLive to link its engine freelist (Engine.procFree or
	// flowFree).
	prevLive, nextLive *Proc
}

// Idle reports whether p can start a life with Engine.SpawnFlowIn: it was
// never spawned, or its last life has ended.
func (p *Proc) Idle() bool { return p.e == nil || p.done }

// blockKind codes the operation a parked process waits in: one of the
// kernel's own primitives, or blockOther for a kind FlowPark was given that
// is none of them, which then rides in blockName joined with the name.
type blockKind uint8

const (
	blockNone blockKind = iota
	blockSleep
	blockEventWait
	blockEventWaitTimeout
	blockGateWait
	blockQueueSend
	blockQueueRecv
	blockResourceAcquire
	blockWaitGroupWait
	blockOther
)

// blockKinds names each blockKind in deadlock reports; FlowPark maps the
// names back (TestBlockReasonText checks that the two agree).
var blockKinds = [...]string{
	blockNone:             "",
	blockSleep:            "sleep",
	blockEventWait:        "event.wait",
	blockEventWaitTimeout: "event.wait-timeout",
	blockGateWait:         "gate.wait",
	blockQueueSend:        "queue.send",
	blockQueueRecv:        "queue.recv",
	blockResourceAcquire:  "resource.acquire",
	blockWaitGroupWait:    "waitgroup.wait",
	blockOther:            "",
}

// coState is the coroutine half of a Proc: the body of a spawned process
// between Spawn and its start event (fn), and the iter.Pull pair that drives
// the coroutine from the trampoline (next/stop) and suspends it from inside
// (yield; see coro.go). next/stop/yield are nil until the first life starts;
// the coroutine then stays pooled with the Proc. Flows never have one.
type coState struct {
	fn    func(*Proc)
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// coProc is the single allocation behind a fresh coroutine process: the Proc
// and its coroutine state side by side, with Proc.co pointing at the latter.
type coProc struct {
	p  Proc
	co coState
}

// Flow is the body of a flow (Engine.SpawnFlow), and of a coroutine process
// blocked with Block: Step is run in engine context at every wake and parks
// again with a Flow* primitive before it returns, or ends the flow with
// FlowEnd, or the coroutine process's step with EndStep. reason is the wake
// reason.
type Flow interface {
	Step(p *Proc, reason int)
}

// FlowNamer is a Flow that formats its own process name. A flow spawned with
// an empty name takes its name from FlowName, called only when something
// reads the name — a tracer other than the default no-op one, a deadlock
// report or a step panic — and at most once per life. p is the flow's
// process, so one value can drive, and name, several flows (as Step tells
// them apart by the p it is given).
type FlowNamer interface {
	Flow
	FlowName(p *Proc) string
}

// sleepSeqFlow is the Flow a SleepSeq installs: its sequence function.
type sleepSeqFlow func() (Duration, bool)

// Step implements Flow: run the next instant's side effects, then sleep
// again or end the sequence.
func (next sleepSeqFlow) Step(p *Proc, _ int) {
	if d, ok := next(); ok {
		p.FlowSleep(d)
	} else {
		p.EndStep()
	}
}

// procName returns the process name, formatting a lazily named flow's name
// on first read and keeping it for the rest of the life.
func (p *Proc) procName() string {
	if p.name == "" && p.step != nil {
		if n, ok := p.step.(FlowNamer); ok {
			p.name = n.FlowName(p)
		}
	}
	return p.name
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// park blocks the process until a wakeup arrives, returning the wake reason.
// kind codes the operation (blockQueueRecv), name names the primitive
// ("mpi.eager:n3"); both are only read if the simulation deadlocks.
func (p *Proc) park(kind blockKind, name string) int {
	p.flowPark(kind, name)
	return p.wait()
}

// wait blocks a process that has parked with a Flow* primitive until a
// wakeup arrives, and returns the wake reason: each coroutine primitive is
// its step form followed by wait. The process holds the baton, so it runs the
// dispatcher itself (see Engine.dispatch): when its own wakeup is the next
// event it returns with no switch; otherwise it hands the baton to the
// process being resumed and stays suspended until the trampoline resumes it.
func (p *Proc) wait() int {
	r := p.e.dispatch(p)
	if r == wakeKill {
		panic(killSentinel{})
	}
	p.token++
	p.blockKind, p.blockName = blockNone, ""
	return r
}

// Block blocks a coroutine process that has just parked with a Flow*
// primitive (FlowSleep, FlowPark, Queue.FlowRecvPark,
// Resource.FlowAcquireStart/Retry) and returns the reason of the wake that
// resumes it. With step nil that is the first wake, as in the coroutine
// primitives, which are their step forms followed by Block(nil). Otherwise
// step runs as the process's step, in engine context, at each wake: it parks
// again with a Flow* primitive, or calls EndStep, and the process resumes at
// the wake that called EndStep, at that same instant. A wake the step
// absorbs costs a call instead of two coroutine switches, and the events
// pushed are the ones the step pushes, so a loop whose body the step runs is
// event-for-event the loop the process would run itself between Blocks
// (TestSleepSeqMatchesSleepLoop, mpi's FuzzRankProgramMatchesCalls).
//
// The step must not block (it runs on whichever coroutine holds the baton)
// and must not register the process anywhere unless it then parks. A panic
// in it is recorded as the process's failure.
func (p *Proc) Block(step Flow) int {
	p.step = step
	return p.wait()
}

// EndStep ends the step a coroutine process installed with Block: called by
// the step instead of parking again, it makes the wake running the step
// resume the process. A flow ends with FlowEnd instead.
func (p *Proc) EndStep() { p.step = nil }

// flowPark records what a process is blocked on. A flow then returns control
// to the engine, and its step function is re-invoked by the next matching
// wakeup; a coroutine process goes on to wait. Parking itself is just two
// field writes.
func (p *Proc) flowPark(kind blockKind, name string) {
	p.blockKind, p.blockName = kind, name
}

// FlowSleep schedules the process's next wake after d of virtual time. Sleep
// is FlowSleep followed by wait, so both push exactly the same resume event,
// and replacing a coroutine-backed process with a flow is invisible to the
// event sequence. In a step it must be the last simulated action.
func (p *Proc) FlowSleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.e.scheduleResume(p, p.e.now.Add(d), wakeSignal)
	p.flowPark(blockSleep, "")
}

// FlowPark parks the flow on an externally-managed wait: no event is
// scheduled and no waiter is registered anywhere. Some other party must
// later wake it with WakeDetached or register it with Queue.FlowRecvPark.
// kind and name label the blocked-on state for deadlock reports, which show
// "kind:name" (or kind alone when name is empty). Must be the last simulated
// action of the current step.
func (p *Proc) FlowPark(kind, name string) {
	var k blockKind
	switch kind {
	case "":
		k = blockNone
	case "sleep":
		k = blockSleep
	case "event.wait":
		k = blockEventWait
	case "event.wait-timeout":
		k = blockEventWaitTimeout
	case "gate.wait":
		k = blockGateWait
	case "queue.send":
		k = blockQueueSend
	case "queue.recv":
		k = blockQueueRecv
	case "resource.acquire":
		k = blockResourceAcquire
	case "waitgroup.wait":
		k = blockWaitGroupWait
	default:
		k = blockOther
		if name != "" {
			kind += ":" + name
		}
		name = kind
	}
	p.flowPark(k, name)
}

// WakeDetached schedules an immediate resume of a flow parked with FlowPark.
// It pushes the same current-time resume event a queue or event wakeup does.
// Must be called from engine context (another process or an engine callback),
// and only while the flow is parked without a registration — a flow woken
// through two paths would consume a wakeup meant for another life.
func (p *Proc) WakeDetached() { waiter{p, p.token}.wake(wakeSignal) }

// FlowEnd terminates the flow, emitting the same proc.end trace record a
// coroutine-backed process emits when its function returns. The Proc is
// recycled, so the caller must not touch it afterwards, unless it owns it
// (Engine.SpawnFlowIn): then it is Idle until its owner respawns it.
func (p *Proc) FlowEnd() {
	p.e.endProc(p)
	p.e.recycleFlow(p)
}

// blockReason renders the blocked-on description for deadlock reports.
func (p *Proc) blockReason() string {
	switch {
	case p.blockKind == blockOther:
		return p.blockName
	case p.blockName == "":
		return blockKinds[p.blockKind]
	}
	return blockKinds[p.blockKind] + ":" + p.blockName
}

// Sleep advances the process by d of virtual time. Even a zero-length sleep
// yields to the scheduler so that other same-time events can interleave
// deterministically.
func (p *Proc) Sleep(d Duration) {
	p.FlowSleep(d)
	p.wait()
}

// SleepSeq runs a sequence of sleeps without resuming the process between
// them. next is called first here, at the current instant, and then at each
// wake, in engine context: it performs that instant's side effects and
// returns the next sleep, or false to end the sequence, in which case
// SleepSeq returns at that same instant.
//
// Each sleep pushes exactly the resume event Sleep would push, with the same
// time and token, and next runs exactly where the code after that Sleep would
// have run, so a SleepSeq is event-for-event identical to the loop
//
//	for d, ok := next(); ok; d, ok = next() { p.Sleep(d) }
//
// (TestSleepSeqMatchesSleepLoop pins this). The sequence runs as the
// process's step (see Block), the same mechanism that drives a flow: at each
// wake the engine calls next, which FlowSleeps again or ends the step, and
// only the wake that ends the sequence resumes the coroutine. When another
// process holds the baton, a wake thus costs a call of next instead of a
// handoff into this process and back.
//
// next must not block: no Sleep, Wait, Recv, Acquire or any other primitive
// that parks a process, since it runs on whichever coroutine holds the baton.
// It may spawn processes, fire events, send on queues and schedule
// callbacks. A panic in next is recorded as this process's failure. A loop
// that must sometimes block ends the sequence, blocks, and calls SleepSeq
// again.
func (p *Proc) SleepSeq(next func() (Duration, bool)) {
	d, ok := next()
	if !ok {
		return
	}
	p.FlowSleep(d)
	p.Block(sleepSeqFlow(next))
}

// SpawnChild spawns another process from within this one.
func (p *Proc) SpawnChild(name string, fn func(*Proc)) *Proc {
	return p.e.Spawn(name, fn)
}

// Trace emits a trace record attributed to this process.
func (p *Proc) Trace(kind, detail string) {
	if p.e.traced {
		p.e.tracer.Trace(p.e.now, kind, p.procName(), detail)
	}
}

// waiter identifies a parked process together with the wait token that was
// current when it blocked.
type waiter struct {
	p     *Proc
	token uint64
}

// stale reports whether the waiter's registration is no longer current: the
// process finished, or woke through another path (e.g. a timeout) since it
// registered. A stale waiter must not consume a wakeup meant for a live one.
func (w waiter) stale() bool { return w.p.done || w.token != w.p.token }

// wake schedules an immediate resume of the waiter's process.
func (w waiter) wake(reason int) {
	ev := w.p.e.allocEvent()
	ev.t, ev.p, ev.token, ev.reason = w.p.e.now, w.p, w.token, int32(reason)
	w.p.e.pushEvent(ev)
}

// purgeWaiters removes every entry for p from ws (used by the timeout paths
// of Event.WaitTimeout so a stale registration does not linger).
func purgeWaiters(ws []waiter, p *Proc) []waiter {
	out := ws[:0]
	for _, w := range ws {
		if w.p != p {
			out = append(out, w)
		}
	}
	for i := len(out); i < len(ws); i++ {
		ws[i] = waiter{}
	}
	return out
}
