package mpi

import (
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// Request is a handle to a nonblocking operation, completed with Wait.
type Request struct {
	rank   *Rank
	done   *sim.Event
	data   payload.Buffer // received payload (receive requests)
	src    int
	recv   bool
	waitFn func() // lazy completion for deferred receives
}

// Wait blocks until the operation completes. For receive requests it returns
// the payload and actual source; for sends the results are zero values.
func (req *Request) Wait() (payload.Buffer, int) {
	req.runLazy()
	req.done.Wait(req.rank.p)
	return req.data, req.src
}

// Done reports whether the operation has already completed.
func (req *Request) Done() bool { return req.done.Fired() }

// Isend starts a nonblocking send of n synthetic bytes and returns a request
// that completes when the message has been delivered (rendezvous) or posted
// (eager).
func (r *Rank) Isend(to, tag int, n int64) *Request {
	return r.IsendData(to, tag, r.synth(tag, n))
}

// IsendData is Isend with an explicit payload.
func (r *Rank) IsendData(to, tag int, data payload.Buffer) *Request {
	r.poll()
	req := &Request{rank: r, done: sim.NewEvent(r.w.E)}
	r.spawnSend(r.isendName, req.done, "isend", to, tag, data)
	return req
}

// Irecv is a limited nonblocking receive: because a rank is single-threaded,
// the returned request is satisfied from messages that have already arrived
// (the unexpected queue) immediately, or lazily at the Wait call, which
// performs the blocking receive. This matches the common MPI usage pattern
// "Irecv; compute; Wait".
func (r *Rank) Irecv(from, tag int) *Request {
	r.poll()
	req := &Request{rank: r, done: sim.NewEvent(r.w.E), recv: true}
	for i, m := range r.unexp {
		if match(m, from, tag) {
			r.unexp = append(r.unexp[:i], r.unexp[i+1:]...)
			req.data, req.src = m.data, m.from
			req.done.Fire()
			return req
		}
	}
	// Defer the actual matching to Wait.
	fromC, tagC := from, tag
	reqDone := req.done
	req.waitFn = func() {
		data, src := r.Recv(fromC, tagC)
		req.data, req.src = data, src
		reqDone.Fire()
	}
	return req
}

// waitFn supports the lazy Irecv path.
func (req *Request) runLazy() {
	if req.waitFn != nil && !req.done.Fired() {
		fn := req.waitFn
		req.waitFn = nil
		fn()
	}
}
