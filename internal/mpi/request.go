package mpi

import (
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// Request is a handle to a nonblocking send, completed with Wait.
type Request struct {
	rank *Rank
	done *sim.Event
}

// Wait blocks until the send completes.
func (req *Request) Wait() { req.done.Wait(req.rank.p) }

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
