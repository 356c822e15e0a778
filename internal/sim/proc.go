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

	// reason is the wake reason of the resume the trampoline delivers next.
	// It is an int32 so that it packs beside started/done.
	reason int32

	// fn holds the body of a spawned process between Spawn and its start
	// event; the start hands it to the (possibly pooled) coroutine.
	fn func(*Proc)

	// next/stop drive the Proc's coroutine from the trampoline and yield
	// suspends it from inside (see coro.go). All three are nil until the
	// first life starts; the coroutine then stays pooled with the Proc.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// step, when non-nil, is run by the engine at each wake in place of a
	// coroutine resume (see Engine.resumeFlow). A flow (Engine.SpawnFlow) is
	// driven by it for its whole life and has no coroutine at all; a
	// coroutine process installs one for the length of a SleepSeq. The step
	// parks with a Flow* primitive and returns, so a wake costs a call: no
	// switch and no stack, only the events it schedules.
	step func(p *Proc, reason int)

	// blockKind/blockName describe what the process is blocked on, kept as
	// two pieces so the hot path never concatenates strings; blockReason()
	// joins them only for deadlock reports.
	blockKind string
	blockName string

	// prevLive/nextLive link the process into the engine's live list while
	// it is spawned and not yet finished (see Engine.first).
	prevLive, nextLive *Proc
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id assigned at Spawn.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// park blocks the process until a wakeup arrives, returning the wake reason.
// kind names the operation ("queue.recv"), name the primitive
// ("mpi.eager:n3"); both are only read if the simulation deadlocks.
func (p *Proc) park(kind, name string) int {
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
	p.blockKind, p.blockName = "", ""
	return r
}

// flowPark records what a process is blocked on. A flow then returns control
// to the engine, and its step function is re-invoked by the next matching
// wakeup; a coroutine process goes on to wait. Parking itself is just two
// field writes.
func (p *Proc) flowPark(kind, name string) {
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
	p.flowPark("sleep", "")
}

// FlowPark parks the flow on an externally-managed wait: no event is
// scheduled and no waiter is registered anywhere. Some other party must
// later wake it with WakeDetached or register it with Queue.FlowRecvPark.
// kind and name label the blocked-on state for deadlock reports. Must be the
// last simulated action of the current step.
func (p *Proc) FlowPark(kind, name string) { p.flowPark(kind, name) }

// WakeDetached schedules an immediate resume of a flow parked with FlowPark.
// It pushes the same current-time resume event a queue or event wakeup does.
// Must be called from engine context (another process or an engine callback),
// and only while the flow is parked without a registration — a flow woken
// through two paths would consume a wakeup meant for another life.
func (p *Proc) WakeDetached() { waiter{p, p.token}.wake(wakeSignal) }

// FlowEnd terminates the flow, emitting the same proc.end trace record a
// coroutine-backed process emits when its function returns. The Proc is
// recycled; the caller must not touch it afterwards.
func (p *Proc) FlowEnd() {
	p.e.endProc(p)
	p.e.recycleFlow(p)
}

// blockReason renders the blocked-on description for deadlock reports.
func (p *Proc) blockReason() string {
	if p.blockName == "" {
		return p.blockKind
	}
	return p.blockKind + ":" + p.blockName
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
// process's step, the same mechanism that drives a flow: at each wake the
// engine calls next, which FlowSleeps again or clears the step, and only the
// wake that ends the sequence resumes the coroutine. When another process
// holds the baton, a wake thus costs a call of next instead of a handoff into
// this process and back.
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
	p.step = func(p *Proc, _ int) {
		if d, ok := next(); ok {
			p.FlowSleep(d)
		} else {
			p.step = nil
		}
	}
	p.Sleep(d)
}

// SpawnChild spawns another process from within this one.
func (p *Proc) SpawnChild(name string, fn func(*Proc)) *Proc {
	return p.e.Spawn(name, fn)
}

// Trace emits a trace record attributed to this process.
func (p *Proc) Trace(kind, detail string) { p.e.tracer.Trace(p.e.now, kind, p.name, detail) }

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
	ev.t, ev.p, ev.token, ev.reason = w.p.e.now, w.p, w.token, reason
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
