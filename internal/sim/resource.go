package sim

// Resource is a FIFO counting semaphore over virtual time, used to model
// contended devices (link serialization, disk heads, CPU slots). Acquisition
// order is strictly first-come-first-served: a large request at the head of
// the queue blocks later small requests, which models store-and-forward
// devices faithfully.
type Resource struct {
	e        *Engine
	name     string
	capacity int64
	used     int64
	waitq    ring[resWaiter]
}

type resWaiter struct {
	w waiter
	n int64
}

// NewResource returns a resource with the given capacity.
func NewResource(e *Engine, name string, capacity int64) *Resource {
	if capacity <= 0 {
		panic("sim: resource capacity must be positive: " + name)
	}
	return &Resource{e: e, name: name, capacity: capacity}
}

// noteUsage reports a usage transition to the engine's ResourceObserver, if
// any. The call is pure bookkeeping on the observer side, so it cannot
// change simulation results; when observability is off it costs one nil
// check.
func (r *Resource) noteUsage() {
	if o := r.e.resObs; o != nil {
		o.ResourceUsage(r.e.now, r.name, r.used, r.capacity)
	}
}

// Acquire blocks p until n units are available and p is at the head of the
// wait queue. n must be in (0, capacity]. It is the coroutine form of
// FlowAcquireStart/FlowAcquireRetry.
func (r *Resource) Acquire(p *Proc, n int64) {
	for ok := r.FlowAcquireStart(p, n); !ok; ok = r.FlowAcquireRetry(p, n) {
		p.wait()
	}
}

// FlowAcquireStart begins acquiring n units for flow p. It returns true when
// the units were granted immediately; otherwise the flow is enqueued and
// parked, and its step function must call FlowAcquireRetry on each
// subsequent wakeup until that returns true.
func (r *Resource) FlowAcquireStart(p *Proc, n int64) bool {
	if n <= 0 || n > r.capacity {
		panic("sim: invalid acquire amount on " + r.name)
	}
	if r.waitq.len() == 0 && r.used+n <= r.capacity {
		r.used += n
		r.noteUsage()
		return true
	}
	r.waitq.push(resWaiter{waiter{p, p.token}, n})
	p.flowPark("resource.acquire", r.name)
	return false
}

// FlowAcquireRetry re-attempts a parked flow acquisition after a wakeup:
// grant if p heads the queue and its request fits (admitting the next
// waiter), otherwise re-register the current token and park again. There is
// no timeout path into the wait queue, so entries cannot go stale the way
// Queue receivers can; a spurious wakeup only needs the new token.
func (r *Resource) FlowAcquireRetry(p *Proc, n int64) bool {
	if r.waitq.len() > 0 && r.waitq.at(0).w.p == p && r.used+n <= r.capacity {
		r.waitq.pop()
		r.used += n
		r.noteUsage()
		r.admit()
		return true
	}
	// Spurious wake (not at head, or capacity taken): re-register token.
	for i := 0; i < r.waitq.len(); i++ {
		if rw := r.waitq.at(i); rw.w.p == p {
			rw.w.token = p.token
		}
	}
	p.flowPark("resource.acquire", r.name)
	return false
}

// Release returns n units and admits queued acquirers in FIFO order.
func (r *Resource) Release(n int64) {
	if n <= 0 || n > r.used {
		panic("sim: invalid release amount on " + r.name)
	}
	r.used -= n
	r.noteUsage()
	r.admit()
}

// admit wakes the queue head if its request now fits.
func (r *Resource) admit() {
	if r.waitq.len() > 0 {
		if head := r.waitq.at(0); r.used+head.n <= r.capacity {
			head.w.wake(wakeSignal)
		}
	}
}

// Hold acquires n units, sleeps for d, and releases them — the common pattern
// for occupying a device for a service time.
func (r *Resource) Hold(p *Proc, n int64, d Duration) {
	r.Acquire(p, n)
	p.Sleep(d)
	r.Release(n)
}

// WaitGroup tracks completion of a set of simulated activities.
type WaitGroup struct {
	e       *Engine
	count   int
	waiters []waiter
}

// NewWaitGroup returns an empty wait group.
func NewWaitGroup(e *Engine) *WaitGroup { return &WaitGroup{e: e} }

// Add increments the outstanding-activity count by n (n may be negative, as
// with sync.WaitGroup semantics Done is Add(-1)).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup count")
	}
	if wg.count == 0 {
		for _, w := range wg.waiters {
			w.wake(wakeSignal)
		}
		wg.waiters = nil
	}
}

// Done decrements the count by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Count returns the outstanding count.
func (wg *WaitGroup) Count() int { return wg.count }

// Wait blocks p until the count reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	for wg.count > 0 {
		wg.waiters = append(wg.waiters, waiter{p, p.token})
		p.park("waitgroup.wait", "")
	}
}
