package ib

import (
	"ibmig/internal/calib"
	"ibmig/internal/sim"
)

// sendFlow is the wire work behind one PostSend, run as a sim flow (a
// callback-driven state machine) instead of a spawned helper goroutine.
// Eager MPI messages make PostSend by far the most frequently spawned
// activity in a run — hundreds of thousands of sends in one paper-scale
// migration — so the per-message goroutine, its handoff channel, and the
// closure capturing the message dominated host-side cost. The flow pushes
// exactly the events Fabric.transfer pushed from its helper process, in the
// same order at the same virtual times, and emits the same proc.start /
// proc.end records, so the conversion is invisible to simulation results
// (TestGoldenTraceUnchanged). Retired sendFlows are recycled per fabric, so
// a steady-state send allocates nothing.
//
// Stage progression (mirror of Fabric.transfer followed by delivery):
//
//	sfBegin      count fabric bytes; loopback → memcpy sleep; else acquire tx
//	sfTxQueued   parked in the source egress wait queue
//	sfTxHeld     tx acquired, serialization sleep done → release, propagate
//	sfPropagated wire latency elapsed → acquire rx
//	sfRxQueued   parked in the destination ingress wait queue
//	sfRxHeld     rx acquired, serialization sleep done → release, deliver
//	sfDeliver    loopback memcpy done → deliver
const (
	sfBegin = iota
	sfTxQueued
	sfTxHeld
	sfPropagated
	sfRxQueued
	sfRxHeld
	sfDeliver
)

type sendFlow struct {
	q     *QP
	m     Message
	n     int64
	s     sim.Duration
	stage int
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
	f.sendPool = append(f.sendPool, sf)
}

// Step implements sim.Flow: a *sendFlow is handed to SpawnFlow as is.
func (sf *sendFlow) Step(p *sim.Proc, _ int) {
	q := sf.q
	f := q.hca.f
	src, dst := q.hca, q.peer.hca
	switch sf.stage {
	case sfBegin:
		f.BytesTransferred += sf.n
		f.Operations++
		if src == dst {
			sf.stage = sfDeliver
			p.FlowSleep(sim.Duration(float64(sf.n) / float64(calib.MemcpyBandwidth) * 1e9))
			return
		}
		sf.s = f.serialization(sf.n)
		if !src.tx.FlowAcquireStart(p, 1) {
			sf.stage = sfTxQueued
			return
		}
		sf.stage = sfTxHeld
		p.FlowSleep(sf.s)
	case sfTxQueued:
		if !src.tx.FlowAcquireRetry(p, 1) {
			return
		}
		sf.stage = sfTxHeld
		p.FlowSleep(sf.s)
	case sfTxHeld:
		src.tx.Release(1)
		src.BytesTx += sf.n
		sf.stage = sfPropagated
		p.FlowSleep(f.cfg.Latency)
	case sfPropagated:
		if !dst.rx.FlowAcquireStart(p, 1) {
			sf.stage = sfRxQueued
			return
		}
		sf.stage = sfRxHeld
		p.FlowSleep(sf.s)
	case sfRxQueued:
		if !dst.rx.FlowAcquireRetry(p, 1) {
			return
		}
		sf.stage = sfRxHeld
		p.FlowSleep(sf.s)
	case sfRxHeld:
		dst.rx.Release(1)
		dst.BytesRx += sf.n
		sf.deliver(p)
	case sfDeliver:
		sf.deliver(p)
	}
}

// deliver lands the message and retires the flow — the tail of the old
// helper process: deliver to the peer if it is still open, drop the inflight
// count, and end.
func (sf *sendFlow) deliver(p *sim.Proc) {
	q, peer := sf.q, sf.q.peer
	if peer.open {
		peer.recvQ.TrySend(sf.m)
	}
	q.addInflight(-1)
	p.FlowEnd()
	q.hca.f.putSendFlow(sf)
}
