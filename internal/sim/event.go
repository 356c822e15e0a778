package sim

// Event is a one-shot broadcast condition: processes block in Wait until some
// other process (or engine callback) calls Fire, after which all current and
// future waiters proceed immediately.
type Event struct {
	e       *Engine
	fired   bool
	waiters []waiter
}

// NewEvent returns an unfired event.
func NewEvent(e *Engine) *Event { return &Event{e: e} }

// Fired reports whether Fire has been called.
func (ev *Event) Fired() bool { return ev.fired }

// Fire marks the event fired and wakes all waiters. Firing an already-fired
// event is a no-op. Fire may be called from process context or from an engine
// callback. The wakeups land on the engine's ready ring, so a broadcast to n
// waiters costs O(n), not O(n log n).
func (ev *Event) Fire() {
	if ev.fired {
		return
	}
	ev.fired = true
	for _, w := range ev.waiters {
		w.wake(wakeSignal)
	}
	ev.waiters = nil
}

// Wait blocks p until the event fires. Returns immediately if already fired.
func (ev *Event) Wait(p *Proc) {
	for !ev.fired {
		ev.waiters = append(ev.waiters, waiter{p, p.token})
		p.park(blockEventWait, "")
	}
}

// WaitTimeout blocks p until the event fires or d elapses. It reports whether
// the event fired (true) as opposed to the timeout expiring (false).
func (ev *Event) WaitTimeout(p *Proc, d Duration) bool {
	if ev.fired {
		return true
	}
	deadline := p.e.now.Add(d)
	for !ev.fired {
		if p.e.now >= deadline {
			return false
		}
		ev.waiters = append(ev.waiters, waiter{p, p.token})
		p.e.scheduleResume(p, deadline, wakeTimeout)
		if p.park(blockEventWaitTimeout, "") == wakeTimeout {
			// Fire is a broadcast, so a stale entry cannot eat another
			// waiter's wakeup here — but a watchdog re-arming WaitTimeout in
			// a loop would otherwise accumulate one dead entry per period.
			ev.waiters = purgeWaiters(ev.waiters, p)
			return ev.fired
		}
	}
	return true
}

// Gate is a reusable barrier condition: Wait blocks while the gate is closed
// and passes while it is open. Unlike Event it can close again.
type Gate struct {
	e       *Engine
	open    bool
	waiters []waiter
}

// NewGate returns a gate in the given initial state.
func NewGate(e *Engine, open bool) *Gate { return &Gate{e: e, open: open} }

// Open opens the gate and releases all waiters.
func (g *Gate) Open() {
	if g.open {
		return
	}
	g.open = true
	for _, w := range g.waiters {
		w.wake(wakeSignal)
	}
	g.waiters = nil
}

// Close closes the gate; subsequent Wait calls block until Open.
func (g *Gate) Close() { g.open = false }

// IsOpen reports the gate state.
func (g *Gate) IsOpen() bool { return g.open }

// Wait blocks p while the gate is closed.
func (g *Gate) Wait(p *Proc) {
	for !g.open {
		g.waiters = append(g.waiters, waiter{p, p.token})
		p.park(blockGateWait, "")
	}
}
