package mpi

import (
	"fmt"
	"math"

	"ibmig/internal/calib"
	"ibmig/internal/ib"
	"ibmig/internal/payload"
	"ibmig/internal/proc"
	"ibmig/internal/sim"
)

// The MPI envelope (source rank and tag) rides in the message's immediate
// data, as MVAPICH2 carries it in the packet header, so a message costs no
// separately allocated descriptor. envMarker tells an MPI message from one
// that lacks the envelope; the source takes bits 32..62 and the tag, as an
// int32, bits 0..31. wireHdrSize is the envelope's simulated wire size.
const (
	wireHdrSize = 16
	envMarker   = 1 << 63
)

// envelope packs (from, tag) into a message's immediate data.
func envelope(from, tag int) uint64 {
	if from < 0 || from > math.MaxInt32 || tag < math.MinInt32 || tag > math.MaxInt32 {
		panic(fmt.Sprintf("mpi: envelope (rank %d, tag %d) out of range", from, tag))
	}
	return envMarker | uint64(from)<<32 | uint64(uint32(tag))
}

// openEnvelope unpacks envelope's result. A message without the marker is
// not an MPI message, and the receiving pump panics.
func openEnvelope(imm uint64) (from, tag int) {
	if imm&envMarker == 0 {
		panic(fmt.Sprintf("mpi: message without an MPI envelope (imm %#x)", imm))
	}
	return int(imm >> 32 &^ (1 << 31)), int(int32(uint32(imm)))
}

// wire returns the ib message carrying one of the rank's sends.
func (r *Rank) wire(tag int, data payload.Buffer) ib.Message {
	return ib.Message{Imm: envelope(r.id, tag), MetaSize: wireHdrSize, Data: data}
}

// control kinds for mailbox messages.
const (
	ctlNone = iota
	ctlSuspend
)

// inMsg is a message as seen by the receiving rank.
type inMsg struct {
	from int
	tag  int
	data payload.Buffer
	ctl  int
}

// Rank is one MPI process. All communication methods must be called from the
// rank's own app function (MPI ranks are single-threaded here; the C/R-thread
// behaviour is folded into the call boundaries, where suspension requests are
// honoured).
type Rank struct {
	w       *World
	id      int
	node    string
	p       *sim.Proc
	mailbox *sim.Queue[inMsg]
	unexp   []inMsg

	// OS is the backing simulated process (address space); set by the
	// cluster layer, checkpointed and migrated by the framework.
	OS *proc.Process

	suspendReq bool
	finished   bool
	cycle      *suspendCycle
	activeOps  int
	opsIdle    *sim.Gate

	collSeq int
	sendSeq uint64

	run runner // the program the rank is running (see Run)

	// sendrecvName names a Sendrecv's send-half flow, formatted once in
	// NewWorld rather than per spawn.
	sendrecvName string

	BytesSent   int64
	MsgsSent    int64
	ComputeTime sim.Duration
	Suspensions int
}

// ID returns the rank number.
func (r *Rank) ID() int { return r.id }

// Size returns the world size.
func (r *Rank) Size() int { return len(r.w.ranks) }

// Node returns the rank's current node.
func (r *Rank) Node() string { return r.node }

// Proc returns the rank's driving simulation process.
func (r *Rank) Proc() *sim.Proc { return r.p }

// poll honours a pending suspension request at an MPI call boundary.
func (r *Rank) poll() {
	if r.suspendReq {
		r.doSuspend()
	}
}

// beginOp and endOp bracket a Sendrecv's send-half flow, the one operation
// a rank has running beside itself; doSuspend waits until none is left.
func (r *Rank) beginOp() {
	r.activeOps++
	if r.opsIdle != nil {
		r.opsIdle.Close()
	}
}

func (r *Rank) endOp() {
	r.activeOps--
	if r.activeOps == 0 && r.opsIdle != nil {
		r.opsIdle.Open()
	}
}

// Send transmits n synthetic payload bytes to rank `to` with the given tag,
// blocking per MPI semantics: eager messages return once posted, rendezvous
// messages once delivered. It is a one-operation program (see Run).
func (r *Rank) Send(to, tag int, n int64) {
	r.exec(nil, Op{Kind: OpSend, Peer: to, Tag: tag, N: n}, payload.Buffer{})
}

// synth returns the payload of the rank's next synthetic send: n bytes
// seeded by rank, tag and send count, so no two sends carry the same bytes.
func (r *Rank) synth(tag int, n int64) payload.Buffer {
	r.sendSeq++
	return payload.Synth(uint64(r.id)<<40^uint64(tag)<<20^r.sendSeq, 0, n)
}

// SendData transmits an explicit payload (content preserved end to end).
func (r *Rank) SendData(to, tag int, data payload.Buffer) {
	r.exec(nil, Op{Kind: opSendData, Peer: to, Tag: tag}, data)
}

// sendSlow finishes, in the coroutine, a send the rank program cannot run
// as its step, once the per-message overhead has elapsed and the send is
// counted: a self-send pays a memcpy, and a send without a connection is
// retried in fault-tolerant mode and panics otherwise.
func (r *Rank) sendSlow(to, tag int, data payload.Buffer) {
	if to == r.id {
		r.p.Sleep(sim.Duration(float64(data.Size()) / float64(calib.MemcpyBandwidth) * 1e9))
		r.mailbox.TrySend(inMsg{from: r.id, tag: tag, data: data})
		return
	}
	if r.w.ftMode {
		r.sendFT(to, r.wire(tag, data))
		return
	}
	panic(fmt.Sprintf("mpi: rank %d has no connection to %d", r.id, to))
}

// ftRetryDelay paces fault-tolerant send retries: deterministic, coarse
// enough that a recovery suspension lands within a few attempts.
const ftRetryDelay = 5 * 1e6 // 5ms between send retries

// sendFT is the fault-tolerant send path: the first transmission of m
// failed (broken QP, downed adapter, missing connection). Retry, each time
// with a synchronous send (see sendRec.advance), with a
// deterministic delay, rebuilding the rank-pair connection when both
// adapters are up. A pending suspension is honoured between attempts — the
// recovery that fixes the fabric runs while this rank is parked, and the
// message goes out on the rebuilt connections afterwards (at-least-once
// across a recovery). The loop never gives up while the peer is alive:
// dropping a message between two surviving ranks would block the receiver
// forever, since restarted ranks continue rather than rewind. The message
// is abandoned (and counted) only when the peer rank has finished — its
// receives have all completed, so the payload can no longer matter. A
// permanently broken fabric always comes with either a recovery suspension
// (which parks this loop) or a lost job (whose frozen suspension parks it
// for good), so the retry loop cannot spin unboundedly.
func (r *Rank) sendFT(to int, m ib.Message) {
	for {
		if r.suspendReq {
			r.doSuspend()
			continue
		}
		if r.w.ranks[to].finished {
			r.w.ftDropped++
			r.p.Trace("mpi.ft", fmt.Sprintf("rank %d: message to finished rank %d dropped", r.id, to))
			return
		}
		r.p.Sleep(ftRetryDelay)
		r.reconnectFT(to)
		c := r.conn(to)
		if !c.ok() {
			continue
		}
		qp, err := c.ensure(r.w)
		if err == nil {
			err = qp.Send(r.p, m)
		}
		if err == nil {
			return
		}
	}
}

// reconnectFT rebuilds the connection to peer `to` if it is broken and both
// ends can carry it. The pair's rebuilding flag serializes rebuilds so the
// two ranks of a pair (or a send retry racing a suspension rebuild) never
// double-connect.
func (r *Rank) reconnectFT(to int) {
	peer := r.w.ranks[to]
	if peer.finished {
		return
	}
	if c := r.conn(to); c.ok() && !c.brokenNow(r.w) {
		return
	}
	if !r.w.hcaUp(r.node) || !r.w.hcaUp(peer.node) {
		return
	}
	lo, hi := r, peer
	if hi.id < lo.id {
		lo, hi = hi, lo
	}
	pr := r.w.pair(lo.id, hi.id)
	if pr.rebuilding {
		return // the peer is rebuilding this pair; retry next attempt
	}
	pr.rebuilding = true
	for _, side := range [2]*Rank{r, peer} {
		other := peer.id
		if side == peer {
			other = r.id
		}
		if old := side.conn(other); old.ok() {
			old.destroy()
		}
	}
	r.p.SleepSeq(r.w.connectSeq(func() (a, b *Rank, ok bool) {
		a, b, ok = lo, hi, lo != nil
		lo = nil
		return a, b, ok
	}))
	pr.rebuilding = false
}

func match(m inMsg, from, tag int) bool {
	return m.ctl == ctlNone &&
		(from == AnySource || m.from == from) &&
		(tag == AnyTag || m.tag == tag)
}

// Recv blocks until a message matching (from, tag) arrives — wildcards
// AnySource/AnyTag — and returns its payload and actual source. A pending
// suspension is serviced transparently while waiting. It is a
// one-operation program (see Run).
func (r *Rank) Recv(from, tag int) (payload.Buffer, int) {
	return r.exec(nil, Op{Kind: OpRecv, Peer: from, Tag: tag}, payload.Buffer{})
}

// Sendrecv performs a simultaneous send and receive (the deadlock-free
// neighbour exchange NPB kernels rely on). It is a one-operation program
// (see Run and OpSendrecv).
func (r *Rank) Sendrecv(to, sendTag int, n int64, from, recvTag int) payload.Buffer {
	got, _ := r.exec(nil, Op{Kind: OpSendrecv, Peer: to, Tag: sendTag, N: n, From: from, RecvTag: recvTag}, payload.Buffer{})
	return got
}

// SendrecvData is Sendrecv with an explicit outgoing payload.
func (r *Rank) SendrecvData(to, sendTag int, data payload.Buffer, from, recvTag int) payload.Buffer {
	got, _ := r.exec(nil, Op{Kind: OpSendrecv, Peer: to, Tag: sendTag, N: -1, From: from, RecvTag: recvTag}, data)
	return got
}

// Compute advances the rank by d of application computation, polling for
// suspension requests at slice granularity so a migration trigger stalls the
// job within milliseconds, not a full compute phase. It is a one-operation
// program (see Run).
func (r *Rank) Compute(d sim.Duration) {
	r.exec(nil, Op{Kind: OpCompute, D: d}, payload.Buffer{})
}

// TouchMemory dirties the rank's writable address space, so successive
// checkpoints capture genuinely different content (gen is typically the
// iteration number). No simulated time is charged; the work is part of the
// surrounding Compute.
func (r *Rank) TouchMemory(gen uint64) {
	if r.OS == nil {
		return
	}
	for si, s := range r.OS.Segments {
		if s.Name == "text" {
			continue
		}
		s.Region.Write(0, payload.Synth(uint64(r.id)<<32^gen<<8^uint64(si), 0, s.Region.Size()))
	}
}
