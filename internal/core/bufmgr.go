package core

import (
	"errors"
	"fmt"
	"sort"

	"ibmig/internal/blcr"
	"ibmig/internal/cluster"
	"ibmig/internal/gige"
	"ibmig/internal/ib"
	"ibmig/internal/mem"
	"ibmig/internal/obs"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
	"ibmig/internal/vfs"
)

// errAborted reports that the migration attempt was torn down while an
// operation was in flight.
var errAborted = errors.New("core: migration attempt aborted")

// srcBufMgr is the user-level buffer manager on the migration source (paper
// Fig. 3): it owns the buffer pool that the altered BLCR maps into kernel
// space, hands chunks to the per-process checkpoint streams, announces full
// chunks to the target, and recycles chunks when the target releases them.
type srcBufMgr struct {
	fw        *Framework
	m         *migrationState
	pool      *mem.Region
	poolMR    *ib.MR
	chunkSize int64
	free      *sim.Queue[int64] // offsets of free chunks in the pool
	qp        *ib.QP            // control endpoint (RDMA transport)
	sock      *gige.Conn        // data connection (socket transport)
	complete  *sim.Event
	aborted   bool

	// Observability (all nil/zero when the collector is disabled).
	oc         *obs.Collector
	aggWait    *obs.Histogram
	poolName   string
	poolChunks int64

	ChunksSent int64
}

// sockChunk is a chunk pushed over the socket-staging transport.
type sockChunk struct {
	rank    int
	fileOff int64
	data    payload.Buffer
}

// newSrcBufMgr sets up the source side: pool allocation and registration and
// the control/data channel to the target. The calling process pays the setup
// costs (this is inside Phase 2).
func newSrcBufMgr(p *sim.Proc, fw *Framework, node *cluster.Node, m *migrationState) *srcBufMgr {
	opts := fw.opts
	s := &srcBufMgr{
		fw:        fw,
		m:         m,
		pool:      mem.NewRegion(opts.BufferPoolBytes, 0xB00F),
		chunkSize: opts.ChunkBytes,
		free:      sim.NewQueue[int64](fw.C.E, "core.srcpool."+node.Name, 0),
		complete:  sim.NewEvent(fw.C.E),
	}
	for off := int64(0); off+s.chunkSize <= opts.BufferPoolBytes; off += s.chunkSize {
		s.free.TrySend(off)
		s.poolChunks++
	}
	if c := obs.Get(fw.C.E); c != nil {
		s.oc = c
		s.aggWait = c.Hist("core.agg_wait_us", obs.LatencyBucketsUS)
		s.poolName = "bufpool." + node.Name
		s.notePool(fw.C.E.Now())
	}
	switch opts.Transport {
	case TransportRDMA:
		dstHCA := fw.C.Fabric.HCA(m.dst)
		qpS, qpT := ib.ConnectQP(p, node.HCA, dstHCA)
		s.qp = qpS
		m.tgtQP = qpT
		s.poolMR = node.HCA.RegisterMR(p, s.pool)
		// Pump: chunk releases and the final completion come back on the
		// control channel.
		fw.C.E.Spawn("core.srcpump."+node.Name, func(pp *sim.Proc) {
			for {
				msg, ok := qpS.Recv(pp)
				if !ok {
					return
				}
				cm := msg.Meta.(ctrlMsg)
				switch cm.kind {
				case kRelease:
					if !s.free.Closed() {
						s.free.TrySend(cm.poolOff)
						s.notePool(pp.Now())
					}
				case kComplete:
					s.complete.Fire()
				}
			}
		})
	case TransportSocket:
		conn, err := node.IPoIB.Dial(p, m.dst)
		if err != nil {
			panic("core: socket staging dial: " + err.Error())
		}
		s.sock = conn
		fw.C.E.Spawn("core.srcsock."+node.Name, func(pp *sim.Proc) {
			for {
				msg, ok := conn.Recv(pp)
				if !ok {
					return
				}
				if msg.Kind == "complete" {
					s.complete.Fire()
				}
			}
		})
	}
	return s
}

// close releases the source-side transport resources.
func (s *srcBufMgr) close() {
	if s.poolMR != nil {
		s.poolMR.Deregister()
	}
	if s.qp != nil {
		s.qp.Close()
	}
	if s.sock != nil {
		s.sock.Close()
	}
}

// abort tears the source side down mid-transfer: the pool queue closes so
// checkpoint streams waiting for a free chunk error out instead of blocking
// forever, the transport endpoints close (the pump daemons exit), and the
// completion event fires so a parked runSource wakes and observes m.aborted.
func (s *srcBufMgr) abort() {
	if s.aborted {
		return
	}
	s.aborted = true
	s.free.Close()
	s.close()
	s.complete.Fire()
}

// notePool samples the aggregation-pool occupancy (chunks in use) into the
// collector's usage track. No-op when observability is disabled.
func (s *srcBufMgr) notePool(t sim.Time) {
	if s.oc == nil {
		return
	}
	s.oc.Usage(t, s.poolName, s.poolChunks-int64(s.free.Len()), s.poolChunks)
}

// outstanding reports how many pool chunks are currently checked out (not on
// the free list). Zero once the target has released every chunk.
func (s *srcBufMgr) outstanding() int64 {
	return s.poolChunks - int64(s.free.Len())
}

// sink returns the aggregation sink for one rank's checkpoint stream.
func (s *srcBufMgr) sink(rank int) *aggSink {
	return &aggSink{mgr: s, rank: rank, cur: -1}
}

// sendChunk announces (RDMA) or pushes (socket) one filled chunk.
func (s *srcBufMgr) sendChunk(p *sim.Proc, rank int, fileOff, poolOff, size int64) error {
	s.ChunksSent++
	if s.qp != nil {
		return s.qp.PostSend(ib.Message{
			Meta:     ctrlMsg{kind: kChunkReady, rank: rank, fileOff: fileOff, size: size, poolOff: poolOff, rkey: s.poolMR.RKey()},
			MetaSize: 64,
		})
	}
	// Socket staging: the chunk's bytes go through the memory-copy socket
	// stack; once Send returns the kernel owns a copy and the chunk is free.
	data := s.pool.Read(poolOff, size)
	if err := s.sock.Send(p, gige.Message{
		Kind:    "chunk",
		Payload: sockChunk{rank: rank, fileOff: fileOff, data: data},
		Size:    64 + size,
	}); err != nil {
		return err
	}
	if !s.free.Closed() {
		s.free.TrySend(poolOff)
		s.notePool(p.Now())
	}
	return nil
}

// sendRankDone tells the target how many bytes rank's complete image has.
func (s *srcBufMgr) sendRankDone(p *sim.Proc, rank int, total int64) error {
	if s.qp != nil {
		return s.qp.PostSend(ib.Message{Meta: ctrlMsg{kind: kRankDone, rank: rank, total: total}, MetaSize: 64})
	}
	return s.sock.Send(p, gige.Message{Kind: "rankdone", Payload: sockChunk{rank: rank, fileOff: total}, Size: 64})
}

// aggSink adapts one process's BLCR checkpoint stream onto the shared buffer
// pool: data fills the current chunk; full chunks are announced and a fresh
// chunk is fetched from the pool, blocking when the pool is exhausted — the
// paper's flow control.
type aggSink struct {
	mgr     *srcBufMgr
	rank    int
	cur     int64 // current chunk offset in the pool, -1 if none
	fill    int64
	written int64 // stream bytes fully handed to chunks
}

// Write implements blcr.Sink.
func (a *aggSink) Write(p *sim.Proc, b payload.Buffer) error {
	for b.Size() > 0 {
		if a.cur < 0 {
			waitStart := p.Now()
			off, ok := a.mgr.free.Recv(p)
			if !ok {
				return errAborted
			}
			if a.mgr.oc != nil {
				a.mgr.aggWait.Observe(float64(p.Now().Sub(waitStart)) / 1e3)
				a.mgr.notePool(p.Now())
			}
			a.cur, a.fill = off, 0
		}
		take := a.mgr.chunkSize - a.fill
		if take > b.Size() {
			take = b.Size()
		}
		a.mgr.pool.Write(a.cur+a.fill, b.Slice(0, take))
		a.fill += take
		a.written += take
		b = b.Slice(take, b.Size()-take)
		if a.fill == a.mgr.chunkSize {
			if err := a.flush(p); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *aggSink) flush(p *sim.Proc) error {
	start := a.written - a.fill
	err := a.mgr.sendChunk(p, a.rank, start, a.cur, a.fill)
	a.cur, a.fill = -1, 0
	return err
}

// close flushes the final partial chunk and announces the stream's total
// size.
func (a *aggSink) close(p *sim.Proc, total int64) error {
	if a.fill > 0 {
		if err := a.flush(p); err != nil {
			return err
		}
	}
	if a.written != total {
		panic(fmt.Sprintf("core: rank %d sink wrote %d of %d bytes", a.rank, a.written, total))
	}
	return a.mgr.sendRankDone(p, a.rank, total)
}

// orderedAssembler reassembles a rank's stream from chunks that may complete
// out of order (memory-based restart destination).
type orderedAssembler struct {
	parts []struct {
		off int64
		b   payload.Buffer
	}
}

func (o *orderedAssembler) add(off int64, b payload.Buffer) {
	o.parts = append(o.parts, struct {
		off int64
		b   payload.Buffer
	}{off, b})
}

func (o *orderedAssembler) final() payload.Buffer {
	sort.Slice(o.parts, func(i, j int) bool { return o.parts[i].off < o.parts[j].off })
	var out payload.Buffer
	for _, p := range o.parts {
		if p.off != out.Size() {
			panic(fmt.Sprintf("core: stream gap at %d (next chunk at %d)", out.Size(), p.off))
		}
		out.AppendBuffer(p.b)
	}
	return out
}

// targetBufMgr is the buffer manager on the migration target: it pulls
// announced chunks with RDMA Read (bounded by its own pool), releases them,
// and reassembles per-rank images into temporary checkpoint files or memory.
type targetBufMgr struct {
	fw   *Framework
	node *cluster.Node
	m    *migrationState

	qp       *ib.QP
	sockConn *gige.Conn
	tokens   *sim.Queue[int]

	files map[int]*vfs.File
	mem   map[int]*orderedAssembler

	expected    map[int]int64
	written     map[int]int64
	ranksDone   int
	doneSent    bool
	aborted     bool
	filesClosed bool

	// onRankComplete, if set (pipelined restart), fires once per rank when
	// its full image has landed.
	onRankComplete func(rank int)
	rankStarted    map[int]bool

	// onFail reports an unexpected transfer error to the Job Manager (wired
	// to the owning NLA's failure reporter).
	onFail func(p *sim.Proc, node, what string, err error)
}

func newTargetBufMgr(p *sim.Proc, fw *Framework, node *cluster.Node, m *migrationState) *targetBufMgr {
	opts := fw.opts
	t := &targetBufMgr{
		fw:          fw,
		node:        node,
		m:           m,
		qp:          m.tgtQP,
		tokens:      sim.NewQueue[int](fw.C.E, "core.tgtpool."+node.Name, 0),
		files:       make(map[int]*vfs.File),
		mem:         make(map[int]*orderedAssembler),
		expected:    make(map[int]int64),
		written:     make(map[int]int64),
		rankStarted: make(map[int]bool),
	}
	for i := int64(0); i+opts.ChunkBytes <= opts.BufferPoolBytes; i += opts.ChunkBytes {
		t.tokens.TrySend(int(i / opts.ChunkBytes))
	}
	for _, r := range m.ranks {
		if opts.RestartMode == RestartFile {
			t.files[r.ID()] = node.FS.Create(p, fmt.Sprintf("context.%d.tmp", r.ID()))
		} else {
			t.mem[r.ID()] = &orderedAssembler{}
		}
	}
	return t
}

// stream returns the reassembled checkpoint stream for a rank (memory mode).
func (t *targetBufMgr) stream(rank int) blcr.Source {
	return &blcr.BufferSource{Buf: t.mem[rank].final()}
}

// abort tears the target side down mid-transfer: the token pool closes (the
// receive loop exits instead of scheduling more pulls), both transport
// endpoints close, and the partial reassembly files are discarded.
func (t *targetBufMgr) abort() {
	if t.aborted {
		return
	}
	t.aborted = true
	t.tokens.Close()
	if t.qp != nil {
		t.qp.Close()
	}
	if t.sockConn != nil {
		t.sockConn.Close()
	}
	t.closeFiles()
	for _, r := range t.m.ranks {
		if t.files[r.ID()] != nil {
			t.node.FS.Remove(fmt.Sprintf("context.%d.tmp", r.ID()))
		}
	}
}

// closeFiles closes the reassembly files once (shared by the restart path and
// abort).
func (t *targetBufMgr) closeFiles() {
	if t.filesClosed {
		return
	}
	t.filesClosed = true
	for _, r := range t.m.ranks {
		if f := t.files[r.ID()]; f != nil {
			f.Close()
		}
	}
}

// fail reports a transfer error upward — unless the attempt is already being
// torn down, in which case errors are the expected debris of the abort.
func (t *targetBufMgr) fail(p *sim.Proc, node, what string, err error) {
	if t.aborted || t.onFail == nil {
		return
	}
	t.onFail(p, node, what, err)
}

// run processes inbound chunk traffic until the transfer completes.
func (t *targetBufMgr) run(p *sim.Proc) {
	if t.fw.opts.Transport == TransportSocket {
		t.runSocket(p)
		return
	}
	for {
		msg, ok := t.qp.Recv(p)
		if !ok {
			return
		}
		cm := msg.Meta.(ctrlMsg)
		switch cm.kind {
		case kChunkReady:
			token, tok := t.tokens.Recv(p)
			if !tok {
				return
			}
			p.SpawnChild(fmt.Sprintf("core.pull.%s.%d", t.node.Name, token), func(wp *sim.Proc) {
				t.pull(wp, cm, token)
			})
		case kRankDone:
			t.expected[cm.rank] = cm.total
			t.ranksDone++
			t.noteProgress(cm.rank)
			t.checkComplete(p)
		}
		if t.doneSent {
			return
		}
	}
}

// pull executes one RDMA Read: fetch the chunk, release it at the source,
// land it in the rank's destination.
func (t *targetBufMgr) pull(p *sim.Proc, cm ctrlMsg, token int) {
	data, err := t.qp.RDMARead(p, cm.rkey, cm.poolOff, cm.size)
	if err != nil {
		t.fail(p, "", "RDMA pull", err)
		return
	}
	// Release the source chunk as soon as the data is here (paper: "the
	// target buffer manager sends a RDMA-Read reply telling the source
	// buffer manager to release a buffer chunk").
	if err := t.qp.PostSend(ib.Message{Meta: ctrlMsg{kind: kRelease, poolOff: cm.poolOff}, MetaSize: 64}); err != nil {
		t.fail(p, "", "chunk release", err)
		return
	}
	if err := t.land(p, cm.rank, cm.fileOff, data); err != nil {
		t.fail(p, t.node.Name, "land chunk", err)
		return
	}
	if !t.tokens.Closed() {
		t.tokens.TrySend(token)
	}
	t.checkComplete(p)
}

// land writes a chunk into the rank's reassembly destination.
func (t *targetBufMgr) land(p *sim.Proc, rank int, fileOff int64, data payload.Buffer) error {
	if f := t.files[rank]; f != nil {
		if err := f.WriteAt(p, fileOff, data); err != nil {
			return err
		}
	} else {
		t.mem[rank].add(fileOff, data)
	}
	t.written[rank] += data.Size()
	t.noteProgress(rank)
	return nil
}

// noteProgress fires the on-the-fly restart hook once a rank's image is
// complete.
func (t *targetBufMgr) noteProgress(rank int) {
	if t.onRankComplete == nil || t.rankStarted[rank] {
		return
	}
	want, known := t.expected[rank]
	if known && t.written[rank] >= want {
		t.rankStarted[rank] = true
		t.onRankComplete(rank)
	}
}

// checkComplete sends the completion notification once every rank's full
// image has landed, then shuts the target's receive side down so its daemons
// exit.
func (t *targetBufMgr) checkComplete(p *sim.Proc) {
	if t.doneSent || t.aborted || t.ranksDone < len(t.m.ranks) {
		return
	}
	for r, want := range t.expected {
		if t.written[r] < want {
			return
		}
	}
	t.doneSent = true
	if t.fw.opts.Transport == TransportSocket {
		_ = t.sockConn.SendAsync(gige.Message{Kind: "complete", Size: 64})
		return
	}
	if err := t.qp.PostSend(ib.Message{Meta: ctrlMsg{kind: kComplete}, MetaSize: 64}); err != nil {
		t.fail(p, "", "completion notify", err)
		return
	}
	// The completion may be detected by a pull worker while the main receive
	// loop is blocked; closing the local endpoint unblocks it (the posted
	// completion is already on the wire).
	t.qp.Close()
}

// runSocket is the socket-staging receive loop: chunks arrive with their
// payload inline; no pools or releases are involved (the kernel socket
// buffers provide the flow control — and the copies).
func (t *targetBufMgr) runSocket(p *sim.Proc) {
	conn, ok := t.node.IPoIB.Accept(p)
	if !ok {
		return
	}
	t.sockConn = conn
	for {
		msg, mok := conn.Recv(p)
		if !mok {
			return
		}
		switch msg.Kind {
		case "chunk":
			c := msg.Payload.(sockChunk)
			if err := t.land(p, c.rank, c.fileOff, c.data); err != nil {
				t.fail(p, t.node.Name, "land chunk", err)
				return
			}
			t.checkComplete(p)
		case "rankdone":
			c := msg.Payload.(sockChunk)
			t.expected[c.rank] = c.fileOff
			t.ranksDone++
			t.noteProgress(c.rank)
			t.checkComplete(p)
		}
		if t.doneSent {
			return
		}
	}
}
