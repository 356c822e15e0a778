package mpi

import (
	"fmt"
	"strconv"

	"ibmig/internal/ib"
	"ibmig/internal/mem"
	"ibmig/internal/sim"
)

// pair is the connection record of one rank pair (lo, hi), lo < hi: the
// entry pairs[lo][hi-lo-1] of the world's slab for its lower rank, made at
// the lower rank's first connect and kept for the world's whole life, so
// connecting a pair allocates nothing (see World.connect).
//
// Connections are lazy: connectSeq pays the full setup cost (QP bring-up
// plus both rendezvous-buffer registrations) up front — so the simulated
// timeline is identical to an eagerly built mesh — but defers the fabric
// state (QP endpoints, pinned regions, remote keys) until the first message
// actually crosses the pair (materialize). On an N-rank job only the pairs
// that talk ever get it; for nearest-neighbour kernels that turns O(N²) QPs,
// regions and remote keys into O(N). What every pair still holds is this
// record: its two receive pumps, its ranks and its state flags.
//
// Side 0 of the pair is the lower rank's endpoint, side 1 the higher's. The
// record is both pumps' sim.Flow (Step) and names them (FlowName), telling
// the sides apart by the Proc the engine passes, and each pump's Proc lives
// in it (sim.SpawnFlowIn), so a pump costs no Proc allocation, no method
// value and no name string.
type pair struct {
	pump   [2]sim.Proc // receive pump of each side (dormant while lazy)
	fab    *pairFabric // nil while the pair is lazy
	lo, hi int32
	// open marks a side's endpoint as present: connected, and not torn down
	// since (suspension, shutdown, FT rebuild).
	open [2]bool
	// broken marks a side of a lazy pair whose adapter (or its peer's)
	// failed, and whose pump has been woken to end.
	broken [2]bool
	// rebuilding marks a reconnectFT of the pair in flight, so the pair's
	// other rank (or a send retry racing a suspension rebuild) does not
	// connect it twice.
	rebuilding bool
}

// pairFabric is the fabric state of a pair that has talked, per side: its
// rank, QP endpoint, pinned rendezvous buffer and the cached remote key of
// the other side's buffer.
type pairFabric struct {
	r        [2]*Rank
	qp       [2]*ib.QP
	mr       [2]*ib.MR
	peerRKey [2]ib.RemoteKey
}

// conn is one rank's endpoint of a rank-pair connection: the pair's record
// and the rank's side of it. The zero conn is no connection.
type conn struct {
	pr   *pair
	side int
}

// conn returns r's endpoint of the connection to peer, or the zero conn if
// r has none (never connected, torn down, or peer is r itself).
func (r *Rank) conn(peer int) conn {
	lo, hi, side := r.id, peer, 0
	if peer < r.id {
		lo, hi, side = peer, r.id, 1
	}
	if lo == hi || r.w.pairs[lo] == nil {
		return conn{}
	}
	pr := &r.w.pairs[lo][hi-lo-1]
	if !pr.open[side] {
		return conn{}
	}
	return conn{pr, side}
}

// ok reports whether c is an endpoint.
func (c conn) ok() bool { return c.pr != nil }

// qp returns c's QP endpoint, nil while the pair is lazy.
func (c conn) qp() *ib.QP {
	if c.pr.fab == nil {
		return nil
	}
	return c.pr.fab.qp[c.side]
}

// logicalErr classifies a verbs call on a still-lazy connection, answering
// exactly what QP.err would answer had the pair been materialized: a downed
// adapter on either side dominates, then any form of closure.
func (c conn) logicalErr(w *World) error {
	pr := c.pr
	if !w.hcaUp(w.ranks[pr.lo].node) || !w.hcaUp(w.ranks[pr.hi].node) {
		return ib.ErrHCADown
	}
	if pr.broken[c.side] || !pr.open[0] || !pr.open[1] {
		return ib.ErrQPClosed
	}
	return nil
}

// brokenNow reports whether a send on this connection would fail, the lazy
// counterpart of QP.Broken.
func (c conn) brokenNow(w *World) bool {
	if q := c.qp(); q != nil {
		return q.Broken()
	}
	return c.logicalErr(w) != nil
}

// ensure materializes the pair on first use and returns c's QP endpoint. No
// simulated time passes — the setup cost was paid at connectSeq — so the
// event sequence is untouched.
func (c conn) ensure(w *World) (*ib.QP, error) {
	if c.pr.fab == nil {
		if err := c.logicalErr(w); err != nil {
			return nil, err
		}
		c.pr.materialize(w)
	}
	return c.pr.fab.qp[c.side], nil
}

// materialize creates the fabric state for both endpoints of the pair:
// prepaid QPs, prepaid rendezvous-buffer registrations, crossed remote keys.
// The dormant pump flows are adopted as receivers on the new queues without
// waking them, so no event is scheduled. Orientation is canonical (lower
// rank first), matching the argument order an eager connection used.
func (pr *pair) materialize(w *World) {
	a, b := w.ranks[pr.lo], w.ranks[pr.hi]
	ha, hb := w.fabric.HCA(a.node), w.fabric.HCA(b.node)
	qa, qb := ib.ConnectQPPrepaid(ha, hb)
	mra := ha.RegisterMRPrepaid(newRendezvousRegion(w.cfg.RendezvousBufSize, a.id, b.id))
	mrb := hb.RegisterMRPrepaid(newRendezvousRegion(w.cfg.RendezvousBufSize, b.id, a.id))
	pr.fab = &pairFabric{
		r:        [2]*Rank{a, b},
		qp:       [2]*ib.QP{qa, qb},
		mr:       [2]*ib.MR{mra, mrb},
		peerRKey: [2]ib.RemoteKey{mrb.RKey(), mra.RKey()},
	}
	qa.FlowRecvPark(&pr.pump[0])
	qb.FlowRecvPark(&pr.pump[1])
}

// destroy tears down this endpoint. Materialized: revoke the pinned buffer,
// release its region's extents back to the arena, close the QP (which wakes
// the pump off its receive queue to exit). Lazy: wake the dormant pump so it
// can end — unless the fabric already broke the pair, in which case the pump
// was woken then, mirroring the double-Close no-op on a real queue. Either
// way the endpoint is gone: the rank's conn for the peer is the zero conn.
func (c conn) destroy() {
	pr, s := c.pr, c.side
	pr.open[s] = false
	if f := pr.fab; f != nil {
		f.mr[s].Deregister()
		f.mr[s].Region().Release()
		f.qp[s].Close()
		return
	}
	if !pr.broken[s] {
		pr.pump[s].WakeDetached()
	}
}

func newRendezvousRegion(size int64, owner, peer int) *mem.Region {
	return mem.NewRegion(size, uint64(owner)<<20|uint64(peer))
}

// sideOf returns the side whose pump p is.
func (pr *pair) sideOf(p *sim.Proc) int {
	if p == &pr.pump[1] {
		return 1
	}
	return 0
}

// startPumps spawns the flows that forward each side's deliveries into its
// rank's mailbox, the lower rank's first, in the Procs the record holds. As flows they cost no goroutine or stack — essential for the
// O(ranks²) pump population — and their event sequence is identical to the
// goroutine pumps they replaced: one start event at spawn, one wake per
// delivery batch, one end event at teardown. The flows are spawned unnamed:
// a pump's name, "mpi.pump.<rank><-<peer>", is formatted by FlowName only if
// a tracer, a deadlock report or a panic reads it.
func (pr *pair) startPumps(e *sim.Engine) {
	e.SpawnFlowIn(&pr.pump[0], "", pr)
	e.SpawnFlowIn(&pr.pump[1], "", pr)
}

// FlowName implements sim.FlowNamer: the name of pump p.
func (pr *pair) FlowName(p *sim.Proc) string {
	r, peer := pr.lo, pr.hi
	if pr.sideOf(p) == 1 {
		r, peer = peer, r
	}
	var buf [32]byte
	name := append(buf[:0], "mpi.pump."...)
	name = strconv.AppendInt(name, int64(r), 10)
	name = append(name, "<-"...)
	name = strconv.AppendInt(name, int64(peer), 10)
	return string(name)
}

// Step implements sim.Flow: the state machine of pump p. While the
// connection is lazy the flow parks dormant (no queue exists to wait on);
// materialize adopts it as a receiver without waking it. Each wake drains
// every delivered message into the mailbox, exactly as the blocking Recv
// loop did.
func (pr *pair) Step(p *sim.Proc, _ int) {
	s := pr.sideOf(p)
	f := pr.fab
	if f == nil {
		if !pr.open[s] || pr.broken[s] {
			p.FlowEnd()
			return
		}
		p.FlowPark("queue.recv", "mpi.lazy")
		return
	}
	q := f.qp[s]
	for {
		m, ok := q.TryRecv()
		if !ok {
			break
		}
		from, tag := openEnvelope(m.Imm)
		f.r[s].mailbox.TrySend(inMsg{from: from, tag: tag, data: m.Data})
	}
	if q.RecvClosed() {
		p.FlowEnd()
		return
	}
	q.FlowRecvPark(p)
}

// pair returns the record of rank pair (lo, hi), lo < hi, making the
// slab for rank lo if this is its first.
func (w *World) pair(lo, hi int) *pair {
	if w.pairs[lo] == nil {
		w.pairs[lo] = make([]pair, len(w.ranks)-lo-1)
	}
	return &w.pairs[lo][hi-lo-1]
}

// connect gives a paid-for pair its (lazy) endpoints and receive pumps. Every
// caller passes the lower rank as a, whose pump starts first.
//
// The pair's slab entry is reset and reused: both pumps of its previous life
// have ended by then (or it has had none). A suspension's teardown and an FT
// rebuild's destroy wake both pumps, unless an adapter failure already did,
// the pumps end at that same instant, and the pair's three setup sleeps come
// after (TestPumpsEndBeforeReconnect). A pump still live here would step
// the reset record, so connect panics instead.
//
// No other holder of the entry's previous life reads it reset. sendFT reads
// its conn only before its send parks, which then holds the QP alone. The
// drain reads its conn after a park, but a pair reconnects only at launch,
// after every rank's drain (Resume follows WaitAllSuspended), or in
// reconnectFT, which runs only in fault-tolerant mode, where every send is
// synchronous: a draining rank has no send of its own on the wire, so its
// endpoint reads idle, and the drain moves on, old life or new.
func (w *World) connect(a, b *Rank) {
	lo, hi := min(a.id, b.id), max(a.id, b.id)
	pr := w.pair(lo, hi)
	if !pr.pump[0].Idle() || !pr.pump[1].Idle() {
		panic(fmt.Sprintf("mpi: pair (%d,%d) connected while a pump of its previous life runs", lo, hi))
	}
	pr.lo, pr.hi = int32(lo), int32(hi)
	pr.fab = nil
	pr.open = [2]bool{true, true}
	// An eager ConnectQP on a failed adapter would have returned endpoints
	// already broken; the pumps see the flag on their start step and exit
	// at once.
	broken := w.fabric.HCA(a.node).Failed() || w.fabric.HCA(b.node).Failed()
	pr.broken = [2]bool{broken, broken}
	pr.startPumps(w.E)
}
