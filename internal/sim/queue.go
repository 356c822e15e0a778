package sim

// Queue is a FIFO message queue in virtual time, analogous to a Go channel.
// A capacity of 0 means unbounded. Queues are the basic communication
// primitive between simulated processes.
//
// Item storage and both waiter lists are rings, so a long-lived queue with a
// bounded steady-state population allocates a small backing array once and
// reuses it forever (see ring.go for why the former slicing idiom retained
// memory).
type Queue[T any] struct {
	e      *Engine
	name   string
	items  ring[T]
	cap    int
	recvQ  ring[waiter]
	sendQ  ring[waiter]
	closed bool
}

// NewQueue returns a queue with the given capacity (0 = unbounded).
func NewQueue[T any](e *Engine, name string, capacity int) *Queue[T] {
	return &Queue[T]{e: e, name: name, cap: capacity}
}

// Len returns the number of buffered items.
func (q *Queue[T]) Len() int { return q.items.len() }

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed }

// Close marks the queue closed and wakes all blocked receivers and senders.
// Sending on a closed queue panics; receiving drains remaining items and then
// returns ok=false.
func (q *Queue[T]) Close() {
	if q.closed {
		return
	}
	q.closed = true
	for i := 0; i < q.recvQ.len(); i++ {
		q.recvQ.at(i).wake(wakeSignal)
	}
	q.recvQ.clear()
	for i := 0; i < q.sendQ.len(); i++ {
		q.sendQ.at(i).wake(wakeSignal)
	}
	q.sendQ.clear()
}

// Send enqueues v, blocking while the queue is at capacity.
func (q *Queue[T]) Send(p *Proc, v T) {
	for q.cap > 0 && q.items.len() >= q.cap && !q.closed {
		q.sendQ.push(waiter{p, p.token})
		p.park(blockQueueSend, q.name)
	}
	if q.closed {
		panic("sim: send on closed queue " + q.name)
	}
	q.items.push(v)
	q.wakeOneRecv()
}

// TrySend enqueues v if the queue has room, reporting success.
func (q *Queue[T]) TrySend(v T) bool {
	if q.closed {
		panic("sim: send on closed queue " + q.name)
	}
	if q.cap > 0 && q.items.len() >= q.cap {
		return false
	}
	q.items.push(v)
	q.wakeOneRecv()
	return true
}

// Recv dequeues the oldest item, blocking while the queue is empty. ok is
// false if the queue was closed and drained.
func (q *Queue[T]) Recv(p *Proc) (v T, ok bool) {
	for q.items.len() == 0 {
		if q.closed {
			return v, false
		}
		q.FlowRecvPark(p)
		p.wait()
	}
	return q.pop(), true
}

// TryRecv dequeues the oldest item without blocking, reporting success.
func (q *Queue[T]) TryRecv() (v T, ok bool) {
	if q.items.len() == 0 {
		return v, false
	}
	return q.pop(), true
}

func (q *Queue[T]) pop() T {
	v := q.items.pop()
	q.wakeOneSend()
	return v
}

// wakeOneRecv wakes the oldest live receiver. Stale entries (receivers whose
// token moved on since registering) are skipped and discarded rather than
// allowed to consume the wakeup.
func (q *Queue[T]) wakeOneRecv() {
	for q.recvQ.len() > 0 {
		w := q.recvQ.pop()
		if w.stale() {
			continue
		}
		w.wake(wakeSignal)
		return
	}
}

// wakeOneSend admits the oldest live blocked sender after a slot frees up.
// Senders have no timeout path today, so stale entries can only arise from
// future API growth; skipping them here keeps the invariant local.
func (q *Queue[T]) wakeOneSend() {
	for q.sendQ.len() > 0 {
		w := q.sendQ.pop()
		if w.stale() {
			continue
		}
		w.wake(wakeSignal)
		return
	}
}

// FlowRecvPark registers flow p as a blocked receiver and parks it: the step
// form of Recv's empty-queue branch. The flow's step function is
// re-invoked when an item arrives or the queue closes; the step then drains
// with TryRecv and checks Closed. Called from p's own step, it must be the
// last simulated action of that step. It may also adopt a flow already parked
// with FlowPark, from engine context, when the flow's wait target
// materializes after it parked: the queue takes the flow without waking it.
func (q *Queue[T]) FlowRecvPark(p *Proc) {
	q.recvQ.push(waiter{p, p.token})
	p.flowPark(blockQueueRecv, q.name)
}
