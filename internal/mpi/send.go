package mpi

import (
	"fmt"

	"ibmig/internal/calib"
	"ibmig/internal/ib"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// sendRec is the one send state machine: a pooled record whose advance runs
// a send through its stages — the per-message overhead, then an eager post,
// or a synchronous transfer in ib's step form. It has two drivers. The rank
// program runs it as the rank process's step for every Send and SendData
// and for a fault-tolerant Sendrecv's send half; a Sendrecv's send half
// otherwise runs it as its own flow (Step), beside the receive. Either way
// it pushes the events a process making the blocking send would push, in
// the same order (FuzzRankProgramMatchesCalls compares them). A finished
// record returns to the world's pool, so a steady-state send allocates
// nothing.
type sendRec struct {
	r       *Rank
	to, tag int
	data    payload.Buffer
	stage   uint8
	done    bool // the flow has finished
	waiting bool // the rank is parked until the flow finishes
	xfer    ib.SendStep
	next    *sendRec // pool link
}

// Stages of a sendRec.
const (
	srStart = iota // the per-message overhead begins
	srPost         // the overhead has elapsed: post or start the transfer
	srWire         // a synchronous transfer is under way
)

// Results of sendRec.advance.
const (
	sendParked = iota // the driving process is parked with a Flow* primitive
	sendDone          // the send is over; advance's error is the verbs error
	sendLocal         // a self-send or no connection: the driver finishes it
)

// newSend takes a record from the world's pool for a send of data from r.
func (r *Rank) newSend(to, tag int, data payload.Buffer) *sendRec {
	s := r.w.sendFree
	if s != nil {
		r.w.sendFree, s.next = s.next, nil
	} else {
		s = &sendRec{}
	}
	s.r, s.to, s.tag, s.data = r, to, tag, data
	s.stage, s.done, s.waiting = srStart, false, false
	return s
}

// putSendRec returns a finished record to the world's pool.
func (w *World) putSendRec(s *sendRec) {
	s.r, s.data = nil, payload.Buffer{}
	s.next, w.sendFree = w.sendFree, s
}

// advance runs the send from its stage at a wake of p, the process driving
// it, or at its start.
//
// An eager send is over once posted. A rendezvous-size send is synchronous,
// and so is every send in fault-tolerant mode: a posted message in flight
// when a link breaks would be lost without the sender learning, and a lost
// message between two surviving ranks wedges the receiver for good
// (restarts are continuations, never rewinds). A synchronous send rechecks
// the connection after the wire transfer, so every loss turns into a
// failure its sender retries.
func (s *sendRec) advance(p *sim.Proc) (uint8, error) {
	r := s.r
	switch s.stage {
	case srStart:
		s.stage = srPost
		p.FlowSleep(calib.MPIPerMessageOverhead)
		return sendParked, nil
	case srPost:
		r.BytesSent += s.data.Size()
		r.MsgsSent++
		c := r.conn(s.to)
		if !c.ok() {
			return sendLocal, nil
		}
		m := r.wire(s.tag, s.data)
		qp, err := c.ensure(r.w)
		if err != nil {
			return sendDone, err
		}
		if !r.w.ftMode && s.data.Size() <= r.w.cfg.EagerThreshold {
			return sendDone, qp.PostSend(m)
		}
		if err := qp.StartSend(&s.xfer, m); err != nil {
			return sendDone, err
		}
		s.stage = srWire
	}
	if done, err := s.xfer.Step(p); done {
		return sendDone, err
	}
	return sendParked, nil
}

// Step implements sim.Flow for a Sendrecv's send half. A self-send goes to
// the mailbox at once, and any failure panics; the engine records the
// panic as the flow's failure. On finishing, the waiting rank is woken,
// then the send leaves the rank's active operations, then the flow ends.
func (s *sendRec) Step(p *sim.Proc, _ int) {
	res, err := s.advance(p)
	if res == sendParked {
		return
	}
	r := s.r
	var fail string
	switch {
	case res == sendLocal && s.to == r.id:
		r.mailbox.TrySend(inMsg{from: r.id, tag: s.tag, data: s.data})
	case res == sendLocal:
		fail = fmt.Sprintf("mpi: rank %d has no connection to %d", r.id, s.to)
	case err != nil:
		fail = fmt.Sprintf("mpi: rank %d sendrecv to %d: %v", r.id, s.to, err)
	}
	s.done = true
	if s.waiting {
		r.p.WakeDetached()
	}
	r.endOp()
	if fail != "" {
		panic(fail)
	}
	p.FlowEnd()
}
