//go:build go1.23

// The build constraint raises this file's language version to Go 1.23 for
// iter.Pull while go.mod stays at go 1.22 (see README).

package sim

import "iter"

// resume is the trampoline, run by the Run/Shutdown caller: it switches into
// p's coroutine to deliver p.reason, and each time a coroutine yields with a
// handoff (see Proc.suspend) it switches straight into the process handed
// to. It returns when a coroutine yields without one: the run is over and the
// baton is home. A coroutine switch never touches a run queue, so a handoff
// costs two switches and no scheduler wakeup.
func (e *Engine) resume(p *Proc) {
	for p != nil {
		if p.next == nil {
			// A fresh Proc's first life: its coroutine is built here, once,
			// and stays pooled with the Proc from then on.
			p.next, p.stop = iter.Pull(p.coro)
		}
		e.switches++
		p.next()
		p = e.handoff
	}
}

// coro is the body of a pooled process coroutine. After each life the
// coroutine still holds the baton, so it goes on dispatching as an idle pool
// member until some dispatcher hands it wakeStart — itself, with no switch,
// when its own recycled Proc's start event comes up — or Shutdown retires it.
func (p *Proc) coro(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.e.runProc(p)
		if p.e.dispatch(p) != wakeStart {
			return
		}
	}
}

// suspend yields the baton to the trampoline, with e.handoff naming the
// process to resume next (nil when the run is over), and blocks until the
// trampoline resumes p. It returns the reason p was resumed with, or
// wakeRetire when Shutdown stops the coroutine instead.
func (p *Proc) suspend() int {
	if !p.yield(struct{}{}) {
		return wakeRetire
	}
	return p.reason
}
