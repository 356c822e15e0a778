package mpi

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"ibmig/internal/calib"
	"ibmig/internal/ib"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// A generated rank-program scenario: a global schedule of messages,
// exchanges and computations, projected onto each rank in schedule order,
// so no rank ever waits for a message that is sent after something it has
// not yet done. It runs three ways that must be indistinguishable: as a
// rank program (Run), as the equivalent blocking calls, and as the
// coroutine code the calls replaced (legacyRank below, kept as the
// reference).

// Kinds of generated operations.
const (
	gRecv = iota
	gSend
	gCompute
	gSendrecv
	gSendrecvData // explicit payload: an OpCall in the program form
)

type genOp struct {
	kind      int
	peer, tag int
	n         int64
	d         sim.Duration
	from, rtg int // gSendrecv, gSendrecvData: the receive half
}

// explicit is the payload of a generated SendrecvData.
func (o genOp) explicit() payload.Buffer { return payload.Synth(uint64(o.tag)<<32|0xda7a, 3, o.n) }

type progCase struct {
	nodes, ranks int
	ops          [][]genOp
	perturb      int64 // < 0: perturbation off
	// ft is fault-tolerant mode: every send is synchronous, and a failed
	// one is retried in the coroutine (sendFT).
	ft        bool
	suspendAt []sim.Duration
	// breakAt >= 0 (ft only) fails breakNode's adapter that long after
	// Ready, for downFor: the sends on the wire fail and are retried.
	breakAt   sim.Duration
	breakNode int
	downFor   sim.Duration
}

// byteSrc turns fuzz input into bounded choices; exhausted input reads 0.
type byteSrc struct{ b []byte }

func (s *byteSrc) next(n int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[0]) % n
	s.b = s.b[1:]
	return v
}

// Generated sizes straddle the eager threshold; generated computations
// span several compute slices (progSlice), so suspensions land inside them.
var (
	progSizes    = []int64{1, 256, 4 << 10, calib.EagerThreshold, calib.EagerThreshold + 1, 96 << 10}
	progComputes = []sim.Duration{0, 1 * time.Microsecond, 5 * time.Microsecond, 23 * time.Microsecond}
)

const progSlice = 4 * time.Microsecond

func genProgCase(in []byte) progCase {
	s := &byteSrc{in}
	c := progCase{nodes: 1 + s.next(3), ranks: 2 + s.next(4), perturb: -1, breakAt: -1}
	if s.next(2) == 1 {
		c.perturb = int64(s.next(1 << 8))
	}
	c.ft = s.next(4) == 0
	if c.ft && s.next(2) == 1 {
		c.breakAt = sim.Duration(s.next(40)) * time.Microsecond
		c.breakNode = s.next(min(c.nodes, c.ranks)) // a node that hosts a rank
		c.downFor = sim.Duration(1+s.next(8)) * time.Microsecond
	}
	for n := s.next(4); n > 0; n-- {
		c.suspendAt = append(c.suspendAt, sim.Duration(s.next(40))*time.Microsecond)
	}
	c.ops = make([][]genOp, c.ranks)
	tag := 0
	for steps := 4 + s.next(40); steps > 0; steps-- {
		a, b := s.next(c.ranks), s.next(c.ranks)
		switch s.next(5) {
		case 0, 1: // a message a -> b
			tag++
			n := progSizes[s.next(len(progSizes))]
			c.ops[a] = append(c.ops[a], genOp{kind: gSend, peer: b, tag: tag, n: n})
			c.ops[b] = append(c.ops[b], genOp{kind: gRecv, peer: a, tag: tag})
		case 2, 3:
			c.ops[a] = append(c.ops[a], genOp{kind: gCompute, d: progComputes[s.next(len(progComputes))]})
		case 4: // an exchange between a and b
			ta, tb := tag+1, tag+2
			tag += 2
			na, nb := progSizes[s.next(len(progSizes))], progSizes[s.next(len(progSizes))]
			if a == b {
				tb = ta
			}
			kind := gSendrecv + s.next(2)
			c.ops[a] = append(c.ops[a], genOp{kind: kind, peer: b, tag: ta, n: na, from: b, rtg: tb})
			if a != b {
				c.ops[b] = append(c.ops[b], genOp{kind: kind, peer: a, tag: tb, n: nb, from: a, rtg: ta})
			}
		}
	}
	// Out-of-order tags: swapping two adjacent receives keeps the schedule
	// deadlock-free (sends never wait for receives) and sends a message
	// through the unexpected list.
	for _, ops := range c.ops {
		for i := 0; i+1 < len(ops); i++ {
			if ops[i].kind == gRecv && ops[i+1].kind == gRecv && s.next(2) == 1 {
				ops[i], ops[i+1] = ops[i+1], ops[i]
			}
		}
	}
	return c
}

// progOutcome is everything a run of a case shows: its trace, the event
// count, the end time and, per rank, the checksum of every payload received
// in order.
type progOutcome struct {
	records []sim.Record
	events  uint64
	end     sim.Time
	got     [][]uint64
	susp    int // rank suspensions performed
}

// genProgram is a rank's generated ops as a Program.
type genProgram struct {
	ops []genOp
	i   int
	got *[]uint64
}

func (g *genProgram) Next() Op {
	if g.i == len(g.ops) {
		return Op{}
	}
	o := g.ops[g.i]
	g.i++
	switch o.kind {
	case gRecv:
		return Op{Kind: OpRecv, Peer: o.peer, Tag: o.tag}
	case gSend:
		return Op{Kind: OpSend, Peer: o.peer, Tag: o.tag, N: o.n}
	case gCompute:
		return Op{Kind: OpCompute, D: o.d}
	case gSendrecv:
		return Op{Kind: OpSendrecv, Peer: o.peer, Tag: o.tag, N: o.n, From: o.from, RecvTag: o.rtg}
	}
	return Op{Kind: OpCall, Tag: g.i - 1}
}

func (g *genProgram) Received(data payload.Buffer) { *g.got = append(*g.got, data.Checksum()) }

func (g *genProgram) Call(r *Rank, op Op) {
	o := g.ops[op.Tag]
	*g.got = append(*g.got, r.SendrecvData(o.peer, o.tag, o.explicit(), o.from, o.rtg).Checksum())
}

// Ways to run a case.
const (
	asProgram = iota
	asCalls
	asLegacy
)

func runProgCase(t *testing.T, c progCase, mode int) progOutcome {
	t.Helper()
	e := sim.NewEngine(int64(c.ranks*31 + c.nodes))
	rec := &sim.Recorder{}
	e.SetTracer(rec)
	fab := ib.NewFabric(e, ib.Config{})
	placement := make([]string, c.ranks)
	for i := range placement {
		placement[i] = fmt.Sprintf("n%d", i%c.nodes)
		if i < c.nodes {
			fab.AttachHCA(placement[i])
		}
	}
	w := NewWorld(e, fab, placement, Config{ComputeSlice: progSlice})
	w.SetFaultTolerant(c.ft)
	out := progOutcome{got: make([][]uint64, c.ranks)}
	w.Start(func(r *Rank) {
		got := &out.got[r.ID()]
		ops := c.ops[r.ID()]
		if mode == asProgram {
			r.Run(&genProgram{ops: ops, got: got})
			return
		}
		lr := legacyRank{r}
		for _, o := range ops {
			switch {
			case o.kind == gRecv && mode == asCalls:
				b, _ := r.Recv(o.peer, o.tag)
				*got = append(*got, b.Checksum())
			case o.kind == gRecv:
				b, _ := lr.Recv(o.peer, o.tag)
				*got = append(*got, b.Checksum())
			case o.kind == gSend && mode == asCalls:
				r.Send(o.peer, o.tag, o.n)
			case o.kind == gSend:
				lr.Send(o.peer, o.tag, o.n)
			case o.kind == gCompute && mode == asCalls:
				r.Compute(o.d)
			case o.kind == gCompute:
				lr.Compute(o.d)
			case o.kind == gSendrecv && mode == asCalls:
				*got = append(*got, r.Sendrecv(o.peer, o.tag, o.n, o.from, o.rtg).Checksum())
			case o.kind == gSendrecv:
				*got = append(*got, lr.Sendrecv(o.peer, o.tag, o.n, o.from, o.rtg).Checksum())
			case mode == asCalls:
				*got = append(*got, r.SendrecvData(o.peer, o.tag, o.explicit(), o.from, o.rtg).Checksum())
			default:
				*got = append(*got, lr.SendrecvData(o.peer, o.tag, o.explicit(), o.from, o.rtg).Checksum())
			}
		}
	})
	if c.breakAt >= 0 {
		e.Spawn("ctl.break", func(p *sim.Proc) {
			w.WaitReady(p)
			p.Sleep(c.breakAt)
			h := fab.HCA(placement[c.breakNode])
			h.Fail()
			p.Sleep(c.downFor)
			h.Recover()
		})
	}
	e.Spawn("ctl", func(p *sim.Proc) {
		w.WaitReady(p)
		for _, d := range c.suspendAt {
			p.Sleep(d)
			if w.Done() {
				break
			}
			s := w.BeginSuspend()
			s.WaitAllDrained(p)
			s.CompleteTeardown()
			s.WaitAllSuspended(p)
			s.Resume()
			s.WaitAllResumed(p)
		}
		w.WaitDone(p)
		e.Stop()
	})
	if c.perturb >= 0 {
		e.EnablePerturbation(c.perturb)
	}
	if err := e.Run(); err != nil {
		t.Fatalf("mode %d: %v", mode, err)
	}
	out.records, out.events, out.end = rec.Records, e.Events(), e.Now()
	for _, r := range w.Ranks() {
		out.susp += r.Suspensions
	}
	e.Shutdown()
	if !w.Done() {
		t.Fatalf("mode %d: the ranks did not finish", mode)
	}
	return out
}

// checkProgCase runs c every way and requires identical outcomes.
func checkProgCase(t *testing.T, c progCase) {
	t.Helper()
	ref := runProgCase(t, c, asLegacy)
	for _, mode := range []int{asCalls, asProgram} {
		got := runProgCase(t, c, mode)
		name := map[int]string{asCalls: "blocking calls", asProgram: "rank programs"}[mode]
		if got.events != ref.events || got.end != ref.end || got.susp != ref.susp {
			t.Fatalf("%s: %d events ending at %v after %d rank suspensions, the coroutine code %d at %v after %d",
				name, got.events, got.end, got.susp, ref.events, ref.end, ref.susp)
		}
		for i := range ref.records {
			if i >= len(got.records) || got.records[i] != ref.records[i] {
				var g sim.Record
				if i < len(got.records) {
					g = got.records[i]
				}
				t.Fatalf("%s: trace record %d is %+v, the coroutine code's %+v", name, i, g, ref.records[i])
			}
		}
		if len(got.records) != len(ref.records) {
			t.Fatalf("%s: %d trace records, the coroutine code %d", name, len(got.records), len(ref.records))
		}
		for r := range ref.got {
			if fmt.Sprint(got.got[r]) != fmt.Sprint(ref.got[r]) {
				t.Fatalf("%s: rank %d received %x, the coroutine code %x", name, r, got.got[r], ref.got[r])
			}
		}
	}
}

// TestRankProgramMatchesCalls runs generated cases as rank programs, as
// blocking calls and as the coroutine code those replaced, and requires the
// same trace, event count, end time and received payloads from all three.
func TestRankProgramMatchesCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 300
	if testing.Short() {
		n = 50
	}
	for i := 0; i < n; i++ {
		in := make([]byte, 24+rng.Intn(120))
		rng.Read(in)
		checkProgCase(t, genProgCase(in))
	}
}

// FuzzRankProgramMatchesCalls is TestRankProgramMatchesCalls on fuzzed
// cases.
func FuzzRankProgramMatchesCalls(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 3, 1, 7, 0, 3, 10, 0, 1, 5, 1, 0, 4, 2, 3, 1, 0, 1, 4, 4, 0, 2, 1, 3, 1, 1})
	f.Add([]byte{1, 2, 0, 0, 2, 5, 9, 30, 20, 1, 0, 4, 4, 4, 2, 0, 1, 0, 0, 4, 1, 0, 5, 4})
	f.Fuzz(func(t *testing.T, in []byte) { checkProgCase(t, genProgCase(in)) })
}

// legacyRank is the reference for the rank-program equivalence: Recv, Send,
// Compute, Sendrecv and SendrecvData as the coroutine code they were before
// each became a one-operation program and every send a sendRec, the one
// send state machine, driven by the rank's step or as Sendrecv's send-half
// flow. It shares only the coroutine-only helpers the programs bail to
// (sendSlow, sendFT, doSuspend).
type legacyRank struct{ r *Rank }

func (l legacyRank) Recv(from, tag int) (payload.Buffer, int) {
	r := l.r
	r.poll()
	for i, m := range r.unexp {
		if match(m, from, tag) {
			r.unexp = append(r.unexp[:i], r.unexp[i+1:]...)
			return m.data, m.from
		}
	}
	for {
		m, ok := r.mailbox.Recv(r.p)
		if !ok {
			panic(fmt.Sprintf("mpi: rank %d mailbox closed", r.id))
		}
		if m.ctl == ctlSuspend {
			if r.suspendReq {
				r.doSuspend()
			}
			continue
		}
		if match(m, from, tag) {
			r.p.Sleep(calib.MPIPerMessageOverhead)
			return m.data, m.from
		}
		r.unexp = append(r.unexp, m)
	}
}

func (l legacyRank) Send(to, tag int, n int64) { l.SendData(to, tag, l.r.synth(tag, n)) }

func (l legacyRank) SendData(to, tag int, data payload.Buffer) {
	r := l.r
	r.poll()
	r.p.Sleep(calib.MPIPerMessageOverhead)
	r.BytesSent += data.Size()
	r.MsgsSent++
	c := r.conn(to)
	if !c.ok() {
		r.sendSlow(to, tag, data)
		return
	}
	m := r.wire(tag, data)
	r.beginOp()
	qp, err := c.ensure(r.w)
	if err == nil {
		if !r.w.ftMode && data.Size() <= r.w.cfg.EagerThreshold {
			err = qp.PostSend(m)
		} else {
			err = qp.Send(r.p, m)
		}
	}
	r.endOp()
	if err != nil {
		if r.w.ftMode {
			r.sendFT(to, m)
			return
		}
		panic(fmt.Sprintf("mpi: rank %d send to %d: %v", r.id, to, err))
	}
}

func (l legacyRank) Compute(d sim.Duration) {
	r := l.r
	r.ComputeTime += d
	for d > 0 {
		r.poll()
		s := min(r.w.cfg.ComputeSlice, d)
		r.p.Sleep(s)
		d -= s
	}
	r.poll()
}

func (l legacyRank) Sendrecv(to, sendTag int, n int64, from, recvTag int) payload.Buffer {
	r := l.r
	r.poll()
	return l.SendrecvData(to, sendTag, r.synth(sendTag, n), from, recvTag)
}

func (l legacyRank) SendrecvData(to, sendTag int, data payload.Buffer, from, recvTag int) payload.Buffer {
	r := l.r
	r.poll()
	if r.w.ftMode {
		l.SendData(to, sendTag, data)
		got, _ := l.Recv(from, recvTag)
		return got
	}
	sent := sim.NewEvent(r.w.E)
	r.beginOp()
	r.p.SpawnChild(r.sendrecvName, func(sp *sim.Proc) {
		defer r.endOp()
		defer sent.Fire()
		sp.Sleep(calib.MPIPerMessageOverhead)
		r.BytesSent += data.Size()
		r.MsgsSent++
		if to == r.id {
			r.mailbox.TrySend(inMsg{from: r.id, tag: sendTag, data: data})
			return
		}
		c := r.conn(to)
		if !c.ok() {
			panic(fmt.Sprintf("mpi: rank %d has no connection to %d", r.id, to))
		}
		m := r.wire(sendTag, data)
		qp, err := c.ensure(r.w)
		if err == nil {
			if data.Size() <= r.w.cfg.EagerThreshold {
				err = qp.PostSend(m)
			} else {
				err = qp.Send(sp, m)
			}
		}
		if err != nil {
			panic(fmt.Sprintf("mpi: rank %d sendrecv to %d: %v", r.id, to, err))
		}
	})
	got, _ := l.Recv(from, recvTag)
	sent.Wait(r.p)
	return got
}
