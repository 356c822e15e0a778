// Package ib models an InfiniBand fabric at the verbs level: host channel
// adapters (HCAs), reliable-connection queue pairs (QPs), registered memory
// regions (MRs) with remote keys, send/receive, and one-sided RDMA Read.
//
// Timing comes from link occupancy: each HCA has an egress (tx) and ingress
// (rx) serialization resource; a transfer of n bytes holds the source tx for
// n/bandwidth, propagates after the wire latency, and holds the destination
// rx for n/bandwidth. The switch is assumed full-bisection (the paper's
// testbed is a single-switch 8-node cluster), so contention appears exactly
// where it did in the paper: at endpoint links — e.g. many clients pulling
// from one migration source, or many checkpoint streams converging on the
// PVFS servers.
package ib

import (
	"errors"
	"fmt"
	"strconv"

	"ibmig/internal/calib"
	"ibmig/internal/mem"
	"ibmig/internal/obs"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// Errors returned by verbs operations.
var (
	ErrQPClosed    = errors.New("ib: queue pair is closed")
	ErrInvalidRKey = errors.New("ib: invalid or revoked rkey")
	ErrOutOfBounds = errors.New("ib: access beyond memory region bounds")
	ErrUnknownNode = errors.New("ib: unknown node")
	ErrHCADown     = errors.New("ib: adapter or link is down")
)

// Config sets the fabric's link parameters. Zero values fall back to the
// calibrated defaults.
type Config struct {
	Bandwidth int64        // bytes/sec per link direction
	Latency   sim.Duration // one-way propagation
}

func (c Config) withDefaults() Config {
	if c.Bandwidth == 0 {
		c.Bandwidth = calib.IBBandwidth
	}
	if c.Latency == 0 {
		c.Latency = calib.IBLatency
	}
	return c
}

// Fabric is the interconnect: a set of HCAs joined by a non-blocking switch.
type Fabric struct {
	E    *sim.Engine
	cfg  Config
	hcas map[string]*HCA

	// Aggregate counters (bytes moved over the wire, fabric-wide).
	BytesTransferred int64
	Operations       int64

	sendPool []*sendFlow // retired PostSend flows, recycled per fabric
}

// NewFabric creates a fabric on the given engine.
func NewFabric(e *sim.Engine, cfg Config) *Fabric {
	return &Fabric{E: e, cfg: cfg.withDefaults(), hcas: make(map[string]*HCA)}
}

// AttachHCA adds a node's adapter to the fabric. Node names must be unique.
func (f *Fabric) AttachHCA(node string) *HCA {
	if _, dup := f.hcas[node]; dup {
		panic("ib: duplicate HCA for node " + node)
	}
	h := &HCA{
		f:    f,
		node: node,
		tx:   sim.NewResource(f.E, "ib.tx."+node, 1),
		rx:   sim.NewResource(f.E, "ib.rx."+node, 1),
		mrs:  make(map[uint32]*MR),
	}
	f.hcas[node] = h
	return h
}

// HCA returns the adapter attached for node, or nil.
func (f *Fabric) HCA(node string) *HCA { return f.hcas[node] }

// serialization returns the time n bytes occupy one link direction.
func (f *Fabric) serialization(n int64) sim.Duration {
	return sim.Duration(float64(n) / float64(f.cfg.Bandwidth) * 1e9)
}

// Transfer moves n bytes between two attached nodes in the calling process,
// modelling a bulk data stream (used by storage clients, e.g. PVFS traffic
// over the IB transport).
func (f *Fabric) Transfer(p *sim.Proc, srcNode, dstNode string, n int64) error {
	src, dst := f.hcas[srcNode], f.hcas[dstNode]
	if src == nil || dst == nil {
		return ErrUnknownNode
	}
	x := xfer{src: src, dst: dst, n: n}
	for !x.step(p) {
		p.Block(nil)
	}
	return nil
}

// HCA is one node's adapter.
type HCA struct {
	f    *Fabric
	node string
	tx   *sim.Resource
	rx   *sim.Resource

	nextQPN  int
	nextRKey uint32
	mrs      map[uint32]*MR
	qps      []*QP // local endpoints, in creation order
	failed   bool

	// failHooks run at the end of Fail, after every materialized QP here has
	// been broken. Layers that keep connection state outside the fabric (the
	// MPI lazy mesh) register here to learn about the fault; hooks survive
	// Recover so a flapping link fires them again.
	failHooks []func()

	BytesTx int64
	BytesRx int64
}

// OnFail registers fn to run whenever this adapter fails. Hooks run in
// registration order, after the HCA's own QPs and MRs have been invalidated.
func (h *HCA) OnFail(fn func()) { h.failHooks = append(h.failHooks, fn) }

// Failed reports whether the adapter (or its link) has been failed.
func (h *HCA) Failed() bool { return h.failed }

// Fail takes the adapter down, modelling a fatal HCA or link error: every
// registered MR is invalidated and every QP with an endpoint here is errored
// on both sides (RC connections break symmetrically). Blocked receivers wake
// with ok=false; subsequent verbs calls return ErrHCADown. Idempotent.
func (h *HCA) Fail() {
	if h.failed {
		return
	}
	h.failed = true
	for _, mr := range h.mrs {
		mr.valid = false
	}
	h.mrs = make(map[uint32]*MR)
	for _, q := range h.qps {
		q.breakConn()
		q.peer.breakConn()
	}
	for _, fn := range h.failHooks {
		fn()
	}
}

// Recover brings a failed adapter back up, modelling a link that flaps
// rather than dies: new registrations and connections succeed again. State
// destroyed by the failure stays destroyed — MRs registered before the
// failure remain invalid and broken QPs stay broken; endpoints must be
// rebuilt, exactly as after a real port bounce. Idempotent.
func (h *HCA) Recover() { h.failed = false }

// MRRegisterCost returns the simulated time ibv_reg_mr takes to pin size
// bytes (base + per-page), for callers that pay the cost up front and
// materialize the registration later with RegisterMRPrepaid.
func MRRegisterCost(size int64) sim.Duration {
	pages := (size + calib.PageSize - 1) / calib.PageSize
	return calib.IBMRRegisterBase + sim.Duration(pages)*calib.IBMRRegisterPerPage
}

// RegisterMR pins a memory region and returns its handle. The calling
// process pays the registration cost (base + per-page), as ibv_reg_mr does.
func (h *HCA) RegisterMR(p *sim.Proc, region *mem.Region) *MR {
	p.Sleep(MRRegisterCost(region.Size()))
	return h.RegisterMRPrepaid(region)
}

// RegisterMRPrepaid pins a memory region whose registration cost has already
// been paid (see MRRegisterCost). No simulated time passes and no events are
// scheduled; state mutation is identical to RegisterMR.
func (h *HCA) RegisterMRPrepaid(region *mem.Region) *MR {
	h.nextRKey++
	mr := &MR{hca: h, rkey: h.nextRKey, region: region, valid: !h.failed}
	if !h.failed {
		h.mrs[mr.rkey] = mr
	}
	return mr
}

// MR is a registered (pinned) memory region.
type MR struct {
	hca    *HCA
	rkey   uint32
	region *mem.Region
	valid  bool
}

// RKey returns the remote key other nodes use to access this region.
func (m *MR) RKey() RemoteKey { return RemoteKey{Node: m.hca.node, Key: m.rkey} }

// Region returns the underlying memory.
func (m *MR) Region() *mem.Region { return m.region }

// Valid reports whether the registration is still live.
func (m *MR) Valid() bool { return m.valid }

// Deregister unpins the region; subsequent remote accesses with its rkey fail
// with ErrInvalidRKey. This is the mechanism behind the paper's Phase-1
// requirement that cached remote keys be released before checkpointing.
func (m *MR) Deregister() {
	m.valid = false
	delete(m.hca.mrs, m.rkey)
}

// RemoteKey addresses a registered region from a remote node.
type RemoteKey struct {
	Node string
	Key  uint32
}

// Message is a two-sided (send/recv) delivery.
type Message struct {
	Imm  uint64         // immediate data
	Meta any            // structured header (simulated scatter/gather entry 0)
	Data payload.Buffer // payload
	// MetaSize is the simulated wire size of Meta, included in transfer cost.
	MetaSize int64
}

// Size returns the message's wire size.
func (m Message) Size() int64 { return m.Data.Size() + m.MetaSize + 32 /* transport header */ }

// QP is one endpoint of a reliable connection.
type QP struct {
	hca   *HCA
	num   int
	peer  *QP
	open  bool
	recvQ *sim.Queue[Message]
	// sendName is the flow name for PostSend wire work, precomputed at
	// connection time so the per-message path never formats a string.
	sendName string

	inflight int       // wire operations outstanding on this endpoint
	idle     *sim.Gate // open when inflight == 0

	BytesSent int64
	MsgsSent  int64
}

// ConnectQP establishes a reliable connection between two HCAs, paying the
// QP setup cost in the calling process, and returns the two endpoints. If
// either adapter is failed the connection cannot be brought up: the endpoints
// are returned already broken, so the first verbs call reports ErrHCADown.
func ConnectQP(p *sim.Proc, a, b *HCA) (*QP, *QP) {
	p.Sleep(calib.IBQPSetup)
	return ConnectQPPrepaid(a, b)
}

// ConnectQPPrepaid establishes a reliable connection whose setup cost
// (calib.IBQPSetup) has already been paid by the caller. No simulated time
// passes and no events are scheduled; the state transitions are identical to
// ConnectQP — lazy connection schemes use it to materialize an endpoint pair
// mid-operation without perturbing the event sequence.
func ConnectQPPrepaid(a, b *HCA) (*QP, *QP) {
	mk := func(h *HCA) *QP {
		h.nextQPN++
		q := &QP{
			hca:   h,
			num:   h.nextQPN,
			open:  true,
			recvQ: sim.NewQueue[Message](h.f.E, fmt.Sprintf("qp.%s.%d", h.node, h.nextQPN), 0),
			idle:  sim.NewGate(h.f.E, true),
		}
		h.qps = append(h.qps, q)
		return q
	}
	qa, qb := mk(a), mk(b)
	qa.peer, qb.peer = qb, qa
	qa.sendName = "ib.send." + a.node + "->" + b.node
	qb.sendName = "ib.send." + b.node + "->" + a.node
	if a.failed || b.failed {
		qa.breakConn()
		qb.breakConn()
	}
	return qa, qb
}

// breakConn errors this endpoint in place: it stops accepting work and wakes
// any blocked receiver. Unlike Close it represents a fault, not a graceful
// teardown.
func (q *QP) breakConn() {
	q.open = false
	q.recvQ.Close()
}

// err classifies the connection state for a verbs call on this endpoint.
func (q *QP) err() error {
	if q.hca.failed || q.peer.hca.failed {
		return ErrHCADown
	}
	if !q.open || !q.peer.open {
		return ErrQPClosed
	}
	return nil
}

// Broken reports whether a verbs call on this endpoint would fail right now
// (either endpoint closed or either adapter down) — the health probe the
// fault-tolerant MPI send path uses to decide whether a connection must be
// rebuilt.
func (q *QP) Broken() bool { return q.err() != nil }

func (q *QP) addInflight(n int) {
	q.inflight += n
	if q.inflight == 0 {
		q.idle.Open()
	} else {
		q.idle.Close()
	}
}

// PostSend transmits a message asynchronously: the wire work proceeds in a
// helper flow (see sendflow.go) and the message is appended to the peer's
// receive queue when the last byte lands. Returns ErrQPClosed if the endpoint
// is down.
func (q *QP) PostSend(m Message) error {
	if err := q.err(); err != nil {
		return err
	}
	q.addInflight(1)
	q.BytesSent += m.Size()
	q.MsgsSent++
	f := q.hca.f
	sf := f.getSendFlow()
	sf.q, sf.m, sf.x = q, m, xfer{src: q.hca, dst: q.peer.hca, n: m.Size()}
	f.E.SpawnFlow(q.sendName, sf)
	return nil
}

// Send transmits synchronously: the calling process performs the wire work
// and returns once the message is delivered to the peer's receive queue. It
// is its step form, StartSend and SendStep.Step, run between Blocks.
func (q *QP) Send(p *sim.Proc, m Message) error {
	var st SendStep
	if err := q.StartSend(&st, m); err != nil {
		return err
	}
	for {
		if done, err := st.Step(p); done {
			return err
		}
		p.Block(nil)
	}
}

// Recv blocks until a message arrives. ok is false if the QP closed.
func (q *QP) Recv(p *sim.Proc) (Message, bool) {
	return q.recvQ.Recv(p)
}

// TryRecv returns a queued message without blocking.
func (q *QP) TryRecv() (Message, bool) { return q.recvQ.TryRecv() }

// RecvClosed reports whether the receive queue has been closed (endpoint
// closed or connection broken) — flows poll it after draining TryRecv.
func (q *QP) RecvClosed() bool { return q.recvQ.Closed() }

// FlowRecvPark parks flow p as a blocked receiver on this endpoint's receive
// queue, or adopts an already-parked flow as one (see sim.Queue.FlowRecvPark).
func (q *QP) FlowRecvPark(p *sim.Proc) { q.recvQ.FlowRecvPark(p) }

// RDMARead pulls [off, off+n) from the remote region identified by rk into
// the calling process, returning the data. The requester pays the request
// round trip; the responder's egress link is occupied for the payload
// serialization, modelling the one-sided, remote-CPU-free semantics of
// InfiniBand RDMA Read that the paper's migration strategy exploits.
//
// With observability enabled the read is wrapped in a per-chunk span on the
// requesting HCA's track and its latency lands in the ib.rdma_read_us
// histogram; disabled, the extra cost is one nil check.
func (q *QP) RDMARead(p *sim.Proc, rk RemoteKey, off, n int64) (payload.Buffer, error) {
	if c := obs.Get(q.hca.f.E); c != nil {
		start := p.Now()
		span := c.StartSpan(start, "rdma.read", q.hca.node+"/hca", 0)
		c.SpanAttr(span, "from", rk.Node)
		c.SpanAttr(span, "bytes", strconv.FormatInt(n, 10))
		data, err := q.rdmaRead(p, rk, off, n)
		end := p.Now()
		if err != nil {
			c.SpanAttr(span, "error", err.Error())
			c.Add("ib.rdma_read_errors", 1)
		} else {
			c.Add("ib.rdma_reads", 1)
			c.Add("ib.rdma_read_bytes", n)
			c.Hist("ib.rdma_read_us", obs.LatencyBucketsUS).Observe(float64(end.Sub(start)) / 1e3)
		}
		c.EndSpan(end, span)
		return data, err
	}
	return q.rdmaRead(p, rk, off, n)
}

func (q *QP) rdmaRead(p *sim.Proc, rk RemoteKey, off, n int64) (payload.Buffer, error) {
	if err := q.err(); err != nil {
		return payload.Buffer{}, err
	}
	responder := q.hca.f.hcas[rk.Node]
	if responder == nil {
		return payload.Buffer{}, ErrUnknownNode
	}
	q.addInflight(1)
	defer q.addInflight(-1)
	// Request packet.
	p.Sleep(calib.IBRDMAReadRequest)
	q.hca.tx.Hold(p, 1, q.hca.f.serialization(64))
	p.Sleep(q.hca.f.cfg.Latency)
	if responder.failed || q.hca.failed {
		return payload.Buffer{}, ErrHCADown
	}
	// Responder-side validity check happens in hardware (no remote CPU).
	mr := responder.mrs[rk.Key]
	if mr == nil || !mr.valid {
		return payload.Buffer{}, ErrInvalidRKey
	}
	if off < 0 || n < 0 || off+n > mr.region.Size() {
		return payload.Buffer{}, ErrOutOfBounds
	}
	data := mr.region.Read(off, n)
	// Payload streams back: responder egress, wire, requester ingress.
	q.hca.f.BytesTransferred += n
	q.hca.f.Operations++
	s := q.hca.f.serialization(n)
	responder.tx.Hold(p, 1, s)
	responder.BytesTx += n
	p.Sleep(q.hca.f.cfg.Latency)
	q.hca.rx.Hold(p, 1, s)
	q.hca.BytesRx += n
	// An in-flight read that crossed an adapter failure completes in error,
	// not with data — the RC connection is gone.
	if responder.failed || q.hca.failed {
		return payload.Buffer{}, ErrHCADown
	}
	return data, nil
}

// WaitIdle blocks until the endpoint has no wire operations in flight — the
// primitive beneath the Phase-1 message drain.
func (q *QP) WaitIdle(p *sim.Proc) { q.idle.Wait(p) }

// Idle reports whether the endpoint has no wire operations in flight, that
// is, whether WaitIdle would return without blocking.
func (q *QP) Idle() bool { return q.idle.IsOpen() }

// Close tears down this endpoint. In-flight messages to a closed endpoint
// are dropped (RC would error them; the MPI layer drains before closing).
func (q *QP) Close() {
	if !q.open {
		return
	}
	q.open = false
	q.recvQ.Close()
}
