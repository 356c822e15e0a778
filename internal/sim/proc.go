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

	// fn holds the body of a spawned process between Spawn and its start
	// event; the start hands it to the (possibly pooled) coroutine.
	fn func(*Proc)

	// next/stop drive the Proc's coroutine from the trampoline and yield
	// suspends it from inside (see coro.go). All three are nil until the
	// first life starts; the coroutine then stays pooled with the Proc.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool

	// reason is the wake reason of the resume the trampoline delivers next.
	reason int

	// step, when non-nil, marks this process as a flow: a state machine
	// driven by engine callbacks instead of a coroutine (see Engine.SpawnFlow).
	// The engine invokes step on every wakeup; the function parks by setting
	// blockKind and returning, so a flow costs no coroutine, no switch, and
	// no stack — only the events it schedules.
	step func(p *Proc, reason int)

	// blockKind/blockName describe what the process is blocked on, kept as
	// two pieces so the hot path never concatenates strings; blockReason()
	// joins them only for deadlock reports.
	blockKind string
	blockName string
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id assigned at Spawn.
func (p *Proc) ID() int { return p.id }

// Engine returns the engine driving this process.
func (p *Proc) Engine() *Engine { return p.e }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.e.now }

// park blocks the process until a wakeup arrives, returning the wake reason.
// The process holds the baton, so it runs the dispatcher itself (see
// Engine.dispatch): when its own wakeup is the next event it returns with no
// switch; otherwise it hands the baton to the process being resumed and
// stays suspended until the trampoline resumes it. kind names the operation
// ("queue.recv"), name the primitive ("mpi.eager:n3"); both are only read if
// the simulation deadlocks.
func (p *Proc) park(kind, name string) int {
	p.blockKind, p.blockName = kind, name
	r := p.e.dispatch(p)
	if r == wakeKill {
		panic(killSentinel{})
	}
	p.token++
	p.blockKind, p.blockName = "", ""
	return r
}

// flowPark records what a flow is blocked on and returns control to the
// engine. The flow's step function will be re-invoked by the next matching
// wakeup; unlike park there is no coroutine to suspend, so parking is just
// two field writes.
func (p *Proc) flowPark(kind, name string) {
	p.blockKind, p.blockName = kind, name
}

// FlowSleep schedules the flow's next step after d of virtual time. It
// pushes exactly the same resume event Sleep does, so replacing a
// coroutine-backed process with a flow is invisible to the event sequence.
// It must be the last simulated action of the current step.
func (p *Proc) FlowSleep(d Duration) {
	if d < 0 {
		d = 0
	}
	p.e.scheduleResume(p, p.e.now.Add(d), wakeSignal)
	p.flowPark("sleep", "")
}

// FlowPark parks the flow on an externally-managed wait: no event is
// scheduled and no waiter is registered anywhere. Some other party must
// later wake it with WakeDetached or register it with Queue.AdoptRecvWaiter.
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
	p.done = true
	p.e.live--
	delete(p.e.procs, p.id)
	p.e.tracer.Trace(p.e.now, "proc.end", p.name, "")
	p.e.recycleFlow(p)
}

// blockReason renders the blocked-on description for deadlock reports.
func (p *Proc) blockReason() string {
	if p.blockName == "" {
		return p.blockKind
	}
	return p.blockKind + ":" + p.blockName
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		// Even a zero-length sleep yields to the scheduler so that other
		// same-time events can interleave deterministically.
		d = 0
	}
	p.e.scheduleResume(p, p.e.now.Add(d), wakeSignal)
	p.park("sleep", "")
}

// Yield gives other same-time events a chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

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
