package mpi

import (
	"fmt"
	"sync"

	"ibmig/internal/calib"
	"ibmig/internal/ib"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// Request is a handle to a nonblocking send, completed with Wait.
type Request struct {
	send *sendRec
}

// Wait blocks until the send completes.
func (req *Request) Wait() {
	if s := req.send; s != nil {
		req.send = nil
		s.wait()
	}
}

// Isend starts a nonblocking send of n synthetic bytes and returns a request
// that completes when the message has been delivered (rendezvous) or posted
// (eager).
func (r *Rank) Isend(to, tag int, n int64) *Request {
	return r.IsendData(to, tag, r.synth(tag, n))
}

// IsendData is Isend with an explicit payload.
func (r *Rank) IsendData(to, tag int, data payload.Buffer) *Request {
	r.poll()
	return &Request{send: r.startSend(r.isendName, "isend", to, tag, data)}
}

// sendRec is one nonblocking send (Isend, or the send half of Sendrecv): a
// pooled record that is also the sim.Flow carrying the send through its
// stages — the per-message overhead, then an eager post, or a rendezvous
// transfer in ib's step form. It pushes the events a helper process making
// the blocking send would push, in the same order, and completes as that
// helper would: the waiting rank is woken, then the operation leaves the
// rank's active count, then the flow ends (FuzzRankProgramMatchesCalls
// compares the two). The rank that waits on the record returns it to the
// world's pool, so a steady-state send allocates nothing.
type sendRec struct {
	r       *Rank
	op      string // names the operation in the panic a failed send raises
	to, tag int
	data    payload.Buffer
	stage   uint8
	done    bool
	waiting bool // the rank is parked in wait
	xfer    ib.SendStep
	next    *sendRec // pool link
}

// Stages of a sendRec.
const (
	srStart      = iota // the start event: the per-message overhead begins
	srPost              // the overhead has elapsed: post or start the transfer
	srRendezvous        // a rendezvous transfer is under way
)

// getSendRec takes a send record from the world's pool, else one a rank of
// another world handed on (see releaseSendRecs). A rank program also
// borrows one for the SendStep of a synchronous send it runs itself.
func (w *World) getSendRec() *sendRec {
	if s := w.sendFree; s != nil {
		w.sendFree, s.next = s.next, nil
		return s
	}
	spareRecs.Lock()
	s := spareRecs.head
	if s != nil {
		spareRecs.head, s.next = s.next, nil
		spareRecs.n--
	}
	spareRecs.Unlock()
	if s == nil {
		s = &sendRec{}
	}
	return s
}

// spareRecs carries idle send records from ended ranks to other worlds. A
// fault-tolerant world borrows about one record per rank, so a sweep of
// many short jobs would otherwise mint them for every job. Worlds of a
// partitioned run end on different goroutines; only a miss of a world's
// pool and the end of a rank touch the list. An intrusive list, unlike a
// sync.Pool, costs no allocation to hold a record.
var spareRecs struct {
	sync.Mutex
	head *sendRec
	n    int
}

// maxSpareRecs bounds spareRecs at the records a 1024-rank barrier holds
// at once, about 300 KB.
const maxSpareRecs = 1024

// releaseSendRecs hands the world's idle records to other worlds, cleared
// so that none keeps this world's fabric alive.
func (w *World) releaseSendRecs() {
	if w.sendFree == nil {
		return
	}
	spareRecs.Lock()
	defer spareRecs.Unlock()
	for s := w.sendFree; s != nil && spareRecs.n < maxSpareRecs; {
		next := s.next
		*s = sendRec{next: spareRecs.head}
		spareRecs.head = s
		spareRecs.n++
		s = next
	}
	w.sendFree = nil
}

// putSendRec returns a finished record to the world's pool.
func (w *World) putSendRec(s *sendRec) {
	s.r, s.data = nil, payload.Buffer{}
	s.next, w.sendFree = w.sendFree, s
}

// startSend begins a nonblocking send from a flow named name and returns its
// record, which the caller must wait on.
func (r *Rank) startSend(name, op string, to, tag int, data payload.Buffer) *sendRec {
	s := r.w.getSendRec()
	s.r, s.op, s.to, s.tag, s.data = r, op, to, tag, data
	s.stage, s.done, s.waiting = srStart, false, false
	r.beginOp()
	r.w.E.SpawnFlow(name, s)
	return s
}

// wait blocks the rank until the send completes, then retires the record.
func (s *sendRec) wait() {
	r := s.r
	if !s.done {
		s.waiting = true
		r.p.FlowPark("event.wait", "")
		r.p.Block(nil)
	}
	r.w.putSendRec(s)
}

// Step implements sim.Flow.
func (s *sendRec) Step(p *sim.Proc, _ int) {
	r := s.r
	switch s.stage {
	case srStart:
		s.stage = srPost
		p.FlowSleep(calib.MPIPerMessageOverhead)
		return
	case srRendezvous:
		s.rendezvous(p)
		return
	}
	r.BytesSent += s.data.Size()
	r.MsgsSent++
	if s.to == r.id {
		r.mailbox.TrySend(inMsg{from: r.id, tag: s.tag, data: s.data})
		s.complete(p)
		return
	}
	c := r.conns[s.to]
	if c == nil {
		s.fail(fmt.Sprintf("mpi: rank %d has no connection to %d", r.id, s.to))
	}
	m := r.wire(s.tag, s.data)
	err := c.ensure()
	if err == nil {
		if s.data.Size() > r.w.cfg.EagerThreshold {
			if err = c.qp.StartSend(&s.xfer, m); err == nil {
				s.stage = srRendezvous
				s.rendezvous(p)
				return
			}
		} else {
			err = c.qp.PostSend(m)
		}
	}
	if err != nil {
		s.failed(err)
	}
	s.complete(p)
}

// rendezvous advances the synchronous transfer and completes the send when
// the message has been delivered.
func (s *sendRec) rendezvous(p *sim.Proc) {
	done, err := s.xfer.Step(p)
	if !done {
		return
	}
	if err != nil {
		s.failed(err)
	}
	s.complete(p)
}

// complete marks the send done: it wakes the waiting rank, takes the send
// out of the rank's active operations and ends the flow.
func (s *sendRec) complete(p *sim.Proc) {
	s.finish()
	p.FlowEnd()
}

// finish is the part of completion a failed send shares: the waiting rank
// is woken, then the send leaves the rank's active operations.
func (s *sendRec) finish() {
	s.done = true
	if s.waiting {
		s.r.p.WakeDetached()
	}
	s.r.endOp()
}

// failed finishes the send and panics with the error of a verbs call, as
// the helper process did when its send failed.
func (s *sendRec) failed(err error) {
	s.fail(fmt.Sprintf("mpi: rank %d %s to %d: %v", s.r.id, s.op, s.to, err))
}

// fail finishes the send and panics with msg; the engine records the panic
// as the flow's failure.
func (s *sendRec) fail(msg string) {
	s.finish()
	panic(msg)
}
