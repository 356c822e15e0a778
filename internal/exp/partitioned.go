package exp

// Partitioned-execution scenario: npb's LU wavefront sharded across
// sim.Partitioned logical processes. This file is only the harness: the
// kernel is npb's LU, run once per shard as an npb.Slice, and the harness
// supplies the boundary edges and the hierarchical all-reduce.
//
// The 2-D LU process grid (nx columns x ny rows, row-major ranks, see
// npb.LUGrid) is cut into `parts` horizontal shards of ny/parts rows. Each
// shard is a self-contained partition: its own engine, its own InfiniBand
// fabric (one node per rank), and its own mpi.World running the shard's band
// of the wavefront sweeps. Only the grid-row boundary between adjacent shards
// crosses partitions, and it does so over sim.CrossLinks:
//
//   - face links carry the wavefront k-block faces a boundary row sends to
//     its off-shard neighbour (south during the lower sweep, north during the
//     upper sweep), routed to a per-column mailbox on the far side;
//   - control links chain the periodic residual all-reduce: each shard
//     reduces locally, shard representatives (local rank 0) fold checksums up
//     the shard chain to shard 0 and fan the combined seed back down, and
//     each shard broadcasts the combined payload locally.
//
// Every cross link carries one lookahead promise: nothing crosses before its
// source shard's MPI mesh is up (mpi.World.MeshCost), so the whole launch —
// most of the events of a large shard — runs as one window. After that the
// windows are bounded by the links' raw latency.
//
// parts=1 degenerates to the exact same scenario on one plain engine driven
// by the proven serial dispatcher; any parts/workers combination produces
// bit-identical per-partition traces (TestPartitionedLUDeterministic).

import (
	"fmt"
	"time"

	"ibmig/internal/calib"
	"ibmig/internal/ib"
	"ibmig/internal/mpi"
	"ibmig/internal/npb"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// tagHier is the application tag base for the hierarchical all-reduce
// broadcast, far above the face tags (one per k-block per sweep) and far
// below the collective-internal block at 1<<20.
const tagHier = 1 << 18

// faceMsg is one wavefront k-block face crossing a shard boundary.
type faceMsg struct {
	ix   int // grid column, selects the destination mailbox
	tag  int // sweep tag, asserted against the receiver's expectation
	data payload.Buffer
}

// ctlMsg is one hop of the all-reduce shard chain.
type ctlMsg struct {
	round int
	sum   uint64
}

// shard is one partition's slice of the scenario.
type shard struct {
	id    int
	e     *sim.Engine
	w     *mpi.World
	rec   *sim.Recorder
	nx    int // grid columns
	first int // first global rank of the shard

	// Cross-partition plumbing (nil at the grid edges).
	sendDown, sendUp *sim.CrossLink        // faces to shard id+1 / id-1
	northIn, southIn []*sim.Queue[faceMsg] // per-column inbound mailboxes
	ctlUp, ctlDown   *sim.CrossLink        // all-reduce chain to id-1 / id+1
	ctlFromAbove     *sim.Queue[ctlMsg]
	ctlFromBelow     *sim.Queue[ctlMsg]
}

// PartitionedOutcome reports one partitioned LU run.
type PartitionedOutcome struct {
	Parts, Workers int
	Ranks          int
	Iterations     int

	Events        uint64
	Windows       uint64
	CrossMessages uint64
	VirtualTime   sim.Duration
	Wall          time.Duration

	// PartitionHashes[i] fingerprints partition i's full trace; identical
	// across worker counts by construction. Fingerprint combines them.
	PartitionHashes []uint64
	Fingerprint     uint64

	Result *npb.Result
}

const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211

// CheckPartitions reports whether a ranks-wide LU grid can be cut into
// parts shards of whole grid rows.
func CheckPartitions(ranks, parts int) error {
	if ranks < 1 {
		return fmt.Errorf("exp: rank count %d must be positive", ranks)
	}
	if _, rows := npb.LUGrid(ranks); parts < 1 || rows%parts != 0 {
		return fmt.Errorf("exp: partition count %d must divide the LU grid rows %d", parts, rows)
	}
	return nil
}

// RunPartitionedLU runs the LU wavefront workload sharded over `parts`
// partitions on `workers` goroutines. iterations overrides the class
// iteration count when > 0 (the scaling benchmark trims it so the setup and
// steady-state phases are both visible in wall time). trace attaches a
// per-partition Recorder and fills the fingerprint fields — leave it off for
// large benchmark runs, a 2048-rank trace does not fit in memory comfortably.
func RunPartitionedLU(sc Scale, parts, workers, iterations int, trace bool) PartitionedOutcome {
	w := npb.New(npb.LU, sc.Class, sc.Ranks)
	if iterations > 0 {
		w.Iterations = iterations
	}
	if err := CheckPartitions(sc.Ranks, parts); err != nil {
		panic(err.Error())
	}
	nx, ny := npb.LUGrid(sc.Ranks)
	rps := ny / parts
	localN := rps * nx

	_, blockFace := w.LUBlock()
	faceLat := calib.IBLatency + sim.Duration(float64(blockFace)/float64(calib.IBBandwidth)*1e9)
	ctlLat := calib.IBLatency + sim.Duration(40*1e9/calib.IBBandwidth)

	pe := sim.NewPartitioned(sc.Seed, parts)
	res := npb.NewResult(sc.Ranks)
	shards := make([]*shard, parts)
	for s := 0; s < parts; s++ {
		sh := &shard{id: s, e: pe.Engine(s), nx: nx, first: s * localN}
		if trace {
			sh.rec = &sim.Recorder{}
			sh.e.SetTracer(sh.rec)
		}
		fab := ib.NewFabric(sh.e, ib.Config{})
		placement := make([]string, localN)
		for i := range placement {
			placement[i] = fmt.Sprintf("n%03d", i)
			fab.AttachHCA(placement[i])
		}
		sh.w = mpi.NewWorld(sh.e, fab, placement, mpi.Config{})
		shards[s] = sh
	}

	// Cross-partition links, in a fixed registration order (the deterministic
	// same-instant tie-break): for each boundary s|s+1, faces down, faces up,
	// control up, control down.
	for s := 0; s < parts-1; s++ {
		lo, hi := shards[s], shards[s+1]
		lo.sendDown = pe.Connect(fmt.Sprintf("face.down.%d", s), s, s+1, faceLat)
		hi.sendUp = pe.Connect(fmt.Sprintf("face.up.%d", s), s+1, s, faceLat)
		hi.ctlUp = pe.Connect(fmt.Sprintf("ctl.up.%d", s), s+1, s, ctlLat)
		lo.ctlDown = pe.Connect(fmt.Sprintf("ctl.down.%d", s), s, s+1, ctlLat)

		hi.northIn = bindFaceColumns(hi.e, fmt.Sprintf("north.%d", s+1), nx, lo.sendDown)
		lo.southIn = bindFaceColumns(lo.e, fmt.Sprintf("south.%d", s), nx, hi.sendUp)
		lo.ctlFromBelow = sim.NewQueue[ctlMsg](lo.e, fmt.Sprintf("ctl.below.%d", s), 0)
		hi.ctlFromAbove = sim.NewQueue[ctlMsg](hi.e, fmt.Sprintf("ctl.above.%d", s+1), 0)
		sim.BindQueue(hi.ctlUp, lo.ctlFromBelow)
		sim.BindQueue(lo.ctlDown, hi.ctlFromAbove)
	}

	for _, sh := range shards {
		// No rank sends before its world's mesh is up, MeshCost after this
		// Start at time zero: that instant is each outgoing link's promise.
		for _, l := range []*sim.CrossLink{sh.sendDown, sh.sendUp, sh.ctlUp, sh.ctlDown} {
			if l != nil {
				l.Promise(sim.Time(0).Add(sh.w.MeshCost()))
			}
		}
		sh.w.Start(w.SliceApp(res, sh.slice(w)))
	}

	start := time.Now()
	if err := pe.Run(workers); err != nil {
		panic("exp: partitioned run: " + err.Error())
	}
	out := PartitionedOutcome{
		Parts: parts, Workers: workers, Ranks: sc.Ranks, Iterations: w.Iterations,
		Events: pe.Events(), Windows: pe.Windows(), CrossMessages: pe.CrossMessages(),
		VirtualTime: sim.Duration(pe.Now()), Wall: time.Since(start),
		Result: res,
	}
	for _, sh := range shards {
		if !sh.w.Done() {
			panic(fmt.Sprintf("exp: partitioned run drained with shard %d unfinished; blocked: %v",
				sh.id, pe.Blocked()))
		}
	}
	if trace {
		out.Fingerprint = fnvOffset
		for _, sh := range shards {
			h := sh.rec.Fingerprint()
			out.PartitionHashes = append(out.PartitionHashes, h)
			out.Fingerprint = (out.Fingerprint ^ h) * fnvPrime
		}
	}
	pe.Shutdown()
	return out
}

// PartitionedScaling measures the partitioned engine against the serial
// baseline at one scenario size: the first returned point is parts=1 on the
// serial dispatcher, the rest run `parts` partitions at each requested worker
// count. Runs are sequential (each owns the whole host) and untraced.
//
// On a single-core host the speedup comes from the partitioning itself —
// each shard's MPI world builds an O((ranks/parts)^2) connection mesh
// instead of the serial O(ranks^2) one, so the event count (and the pump
// process population) drops by roughly the partition count; worker threads
// add on top of that only when real cores back them.
func PartitionedScaling(sc Scale, parts int, workers []int, iterations int) []PartitionedOutcome {
	out := []PartitionedOutcome{RunPartitionedLU(sc, 1, 1, iterations, false)}
	for _, w := range workers {
		out = append(out, RunPartitionedLU(sc, parts, w, iterations, false))
	}
	return out
}

// FormatPartitionedScaling renders a scaling sweep as a text table with
// speedups relative to the first (serial) point.
func FormatPartitionedScaling(pts []PartitionedOutcome) string {
	if len(pts) == 0 {
		return ""
	}
	base := pts[0].Wall.Seconds()
	s := fmt.Sprintf("partitioned scaling: LU ranks=%d iterations=%d\n", pts[0].Ranks, pts[0].Iterations)
	s += fmt.Sprintf("%10s %8s %10s %12s %10s %9s\n", "parts", "workers", "wall_s", "events", "windows", "speedup")
	for _, p := range pts {
		sp := 0.0
		if w := p.Wall.Seconds(); w > 0 {
			sp = base / w
		}
		s += fmt.Sprintf("%10d %8d %10.2f %12d %10d %8.2fx\n",
			p.Parts, p.Workers, p.Wall.Seconds(), p.Events, p.Windows, sp)
	}
	return s
}

// bindFaceColumns routes one face link's deliveries into per-column
// mailboxes on the destination engine.
func bindFaceColumns(e *sim.Engine, name string, nx int, from *sim.CrossLink) []*sim.Queue[faceMsg] {
	qs := make([]*sim.Queue[faceMsg], nx)
	for ix := range qs {
		qs[ix] = sim.NewQueue[faceMsg](e, fmt.Sprintf("face.%s.c%d", name, ix), 0)
	}
	from.Bind(func(_ sim.Time, v any) {
		m := v.(faceMsg)
		qs[m.ix].TrySend(m)
	})
	return qs
}

// crossFace sends one boundary face over the down (south) or up (north)
// face link, charging the same per-message overhead an in-fabric send pays.
func (sh *shard) crossFace(r *mpi.Rank, ix, tag int, n int64, down bool) {
	l := sh.sendUp
	if down {
		l = sh.sendDown
	}
	r.Proc().Sleep(calib.MPIPerMessageOverhead)
	g := sh.first + ix // the column's first-row global rank seeds the payload
	l.Send(faceMsg{ix: ix, tag: tag, data: payload.Synth(uint64(g)<<40^uint64(tag)<<20, 0, n)})
}

// crossRecv consumes one boundary face from a per-column mailbox; faces per
// column arrive in send order (per-link FIFO), so the tag must match.
func crossRecv(p *sim.Proc, q *sim.Queue[faceMsg], tag int) payload.Buffer {
	m, ok := q.Recv(p)
	if !ok {
		panic("exp: face mailbox closed")
	}
	if m.tag != tag {
		panic(fmt.Sprintf("exp: boundary face out of order: got tag %d, want %d", m.tag, tag))
	}
	p.Sleep(calib.MPIPerMessageOverhead)
	return m.data
}

// bcastData distributes an explicit payload from local root over the shard's
// binomial tree using an application tag (mpi.Bcast synthesizes content;
// the all-reduce needs the cross-shard combined payload verbatim).
func bcastData(r *mpi.Rank, root, tag int, data payload.Buffer) payload.Buffer {
	n := r.Size()
	rel := (r.ID() - root + n) % n
	mask := 1
	for mask < n {
		if rel&mask != 0 {
			data, _ = r.Recv((r.ID()-mask+n)%n, tag)
			break
		}
		mask <<= 1
	}
	mask >>= 1
	for mask > 0 {
		if rel+mask < n {
			r.SendData((r.ID()+mask)%n, tag, data)
		}
		mask >>= 1
	}
	return data
}

// hierAllreduce is the cross-shard residual all-reduce: a local all-reduce,
// a checksum chain through the shard representatives to shard 0 and back,
// and a local broadcast of the combined payload.
func (sh *shard) hierAllreduce(r *mpi.Rank, round int) payload.Buffer {
	local := r.Allreduce(40)
	if r.ID() != 0 {
		return bcastData(r, 0, tagHier+round, payload.Buffer{})
	}
	p := r.Proc()
	sum := local.Checksum()
	if sh.ctlFromBelow != nil {
		m, ok := sh.ctlFromBelow.Recv(p)
		if !ok || m.round != round {
			panic("exp: all-reduce chain out of order")
		}
		p.Sleep(calib.MPIPerMessageOverhead)
		sum = sum*fnvPrime ^ m.sum
	}
	g := sum
	if sh.ctlUp != nil {
		p.Sleep(calib.MPIPerMessageOverhead)
		sh.ctlUp.Send(ctlMsg{round: round, sum: sum})
		m, ok := sh.ctlFromAbove.Recv(p)
		if !ok || m.round != round {
			panic("exp: all-reduce chain out of order")
		}
		p.Sleep(calib.MPIPerMessageOverhead)
		g = m.sum
	}
	if sh.ctlDown != nil {
		p.Sleep(calib.MPIPerMessageOverhead)
		sh.ctlDown.Send(ctlMsg{round: round, sum: g})
	}
	return bcastData(r, 0, tagHier+round, payload.Synth(g, 0, 40))
}

// slice places the shard in the LU grid as an npb.Slice: boundary rows'
// faces cross over the face links, and the residual all-reduce is the
// hierarchical chain.
func (sh *shard) slice(w npb.Workload) *npb.Slice {
	return &npb.Slice{
		Cols: sh.nx, First: sh.first,
		Above: sh.northIn != nil, Below: sh.southIn != nil,
		RecvEdge: func(r *mpi.Rank, col, tag int, down bool) payload.Buffer {
			if down {
				return crossRecv(r.Proc(), sh.northIn[col], tag)
			}
			return crossRecv(r.Proc(), sh.southIn[col], tag)
		},
		SendEdge: sh.crossFace,
		Allreduce: func(r *mpi.Rank, done int, final bool) payload.Buffer {
			round := done / w.NormEvery
			if final {
				round++
			}
			return sh.hierAllreduce(r, round)
		},
	}
}
