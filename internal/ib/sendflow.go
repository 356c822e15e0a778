package ib

import (
	"ibmig/internal/calib"
	"ibmig/internal/sim"
)

// xfer is the wire work of one transfer in step form: hold source egress for
// the serialization time, propagate, hold destination ingress. Loopback
// (src == dst) costs a memcpy instead. Fabric.Transfer and QP.Send run it in
// the calling process, a PostSend's sendFlow and a SendStep in a flow; each
// pushes exactly the events of tx.Hold, Sleep(latency), rx.Hold in a
// process.
//
// Stage progression:
//
//	xBegin       count fabric bytes; loopback → memcpy sleep; else acquire tx
//	xTxQueued    parked in the source egress wait queue
//	xTxHeld      tx acquired, serialization sleep done → release, propagate
//	xPropagated  wire latency elapsed → acquire rx
//	xRxQueued    parked in the destination ingress wait queue
//	xRxHeld      rx acquired, serialization sleep done → release; landed
//	xLoopback    loopback memcpy done; landed
const (
	xBegin = iota
	xTxQueued
	xTxHeld
	xPropagated
	xRxQueued
	xRxHeld
	xLoopback
)

type xfer struct {
	src, dst *HCA
	n        int64
	s        sim.Duration
	stage    int
}

// step runs the transfer from its stage at a wake of p (or at its start) and
// reports whether the bytes have landed; until then p is parked with a Flow*
// primitive.
func (x *xfer) step(p *sim.Proc) bool {
	src, dst := x.src, x.dst
	f := src.f
	switch x.stage {
	case xBegin:
		f.BytesTransferred += x.n
		f.Operations++
		if src == dst {
			x.stage = xLoopback
			p.FlowSleep(sim.Duration(float64(x.n) / float64(calib.MemcpyBandwidth) * 1e9))
			return false
		}
		x.s = f.serialization(x.n)
		if !src.tx.FlowAcquireStart(p, 1) {
			x.stage = xTxQueued
			return false
		}
		x.stage = xTxHeld
		p.FlowSleep(x.s)
	case xTxQueued:
		if !src.tx.FlowAcquireRetry(p, 1) {
			return false
		}
		x.stage = xTxHeld
		p.FlowSleep(x.s)
	case xTxHeld:
		src.tx.Release(1)
		src.BytesTx += x.n
		x.stage = xPropagated
		p.FlowSleep(f.cfg.Latency)
	case xPropagated:
		if !dst.rx.FlowAcquireStart(p, 1) {
			x.stage = xRxQueued
			return false
		}
		x.stage = xRxHeld
		p.FlowSleep(x.s)
	case xRxQueued:
		if !dst.rx.FlowAcquireRetry(p, 1) {
			return false
		}
		x.stage = xRxHeld
		p.FlowSleep(x.s)
	case xRxHeld:
		dst.rx.Release(1)
		dst.BytesRx += x.n
		return true
	case xLoopback:
		return true
	}
	return false
}

// sendFlow is the wire work behind one PostSend, run as a sim flow (a
// callback-driven state machine) instead of a spawned helper goroutine.
// Eager MPI messages make PostSend by far the most frequently spawned
// activity in a run — hundreds of thousands of sends in one paper-scale
// migration — so the per-message goroutine, its handoff channel, and the
// closure capturing the message dominated host-side cost. The flow pushes
// exactly the events the transfer pushed from its helper process, in the
// same order at the same virtual times, and emits the same proc.start /
// proc.end records, so the conversion is invisible to simulation results
// (TestGoldenTraceUnchanged). Retired sendFlows are recycled per fabric, so
// a steady-state send allocates nothing.
type sendFlow struct {
	q *QP
	m Message
	x xfer
}

func (f *Fabric) getSendFlow() *sendFlow {
	if n := len(f.sendPool); n > 0 {
		sf := f.sendPool[n-1]
		f.sendPool[n-1] = nil
		f.sendPool = f.sendPool[:n-1]
		return sf
	}
	return &sendFlow{}
}

func (f *Fabric) putSendFlow(sf *sendFlow) {
	sf.q = nil
	sf.m = Message{}
	sf.x = xfer{}
	f.sendPool = append(f.sendPool, sf)
}

// Step implements sim.Flow: a *sendFlow is handed to SpawnFlow as is. Once
// the bytes land it delivers the message to the peer if that is still open,
// drops the inflight count, and ends.
func (sf *sendFlow) Step(p *sim.Proc, _ int) {
	if !sf.x.step(p) {
		return
	}
	q, peer := sf.q, sf.q.peer
	if peer.open {
		peer.recvQ.TrySend(sf.m)
	}
	q.addInflight(-1)
	p.FlowEnd()
	q.hca.f.putSendFlow(sf)
}

// SendStep is the step form of QP.Send, for a flow that sends synchronously
// (an MPI rendezvous send run as a flow): StartSend begins it, and Step runs
// it at once and then at each wake of the flow until it reports done. It
// pushes exactly the events QP.Send pushes, which is StartSend followed by
// Step between Blocks. The zero value is ready for use, and a finished one
// may be started again.
type SendStep struct {
	q *QP
	m Message
	x xfer
}

// StartSend begins a synchronous send of m on st: it fails at once if the
// endpoint is down, as Send does, and otherwise counts the message in flight.
func (q *QP) StartSend(st *SendStep, m Message) error {
	if err := q.err(); err != nil {
		return err
	}
	q.addInflight(1)
	q.BytesSent += m.Size()
	q.MsgsSent++
	*st = SendStep{q: q, m: m, x: xfer{src: q.hca, dst: q.peer.hca, n: m.Size()}}
	return nil
}

// Step advances the send at a wake of p. Until it reports done, p is parked
// with a Flow* primitive. Done, the message is delivered, or err reports
// that the connection broke while the bytes were on the wire.
func (st *SendStep) Step(p *sim.Proc) (done bool, err error) {
	if !st.x.step(p) {
		return false, nil
	}
	q, m := st.q, st.m
	st.q, st.m = nil, Message{}
	// The connection may have broken while the bytes were on the wire.
	if err = q.err(); err == nil {
		q.peer.recvQ.TrySend(m)
	}
	q.addInflight(-1)
	return true, err
}
