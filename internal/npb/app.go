package npb

import (
	"fmt"

	"ibmig/internal/mpi"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// Result collects per-rank outcomes of a run. The verification sums are
// deterministic functions of every payload a rank received, so two runs of
// the same workload must produce identical Results — including a run that
// suffered migrations, which is the paper's application-transparency
// property.
type Result struct {
	RankSums   []uint64
	IterDone   []int
	FinishedAt []sim.Time
}

// NewResult allocates a result for the given rank count.
func NewResult(ranks int) *Result {
	return &Result{
		RankSums:   make([]uint64, ranks),
		IterDone:   make([]int, ranks),
		FinishedAt: make([]sim.Time, ranks),
	}
}

// Equal reports whether two results carry identical verification outcomes.
func (r *Result) Equal(o *Result) bool {
	if len(r.RankSums) != len(o.RankSums) {
		return false
	}
	for i := range r.RankSums {
		if r.RankSums[i] != o.RankSums[i] || r.IterDone[i] != o.IterDone[i] {
			return false
		}
	}
	return true
}

// App returns the rank function for this workload, writing into res. The
// function runs the ranks of one MPI world: it keeps that world's
// verification-sum pipeline (see sums.go), so call App once per world.
func (w Workload) App(res *Result) func(*mpi.Rank) {
	if w.Kernel == LU {
		return w.luApp(res, nil)
	}
	return w.adiApp(res)
}

// luBlocks is the number of pipelined k-blocks per wavefront sweep. Real LU
// pipelines the grid's k dimension through the wavefront, keeping all ranks
// busy except during pipeline fill/drain; 16 blocks keep the pipeline
// inefficiency at the realistic few-tens-of-percent level instead of
// serializing the whole diagonal.
const luBlocks = 16

// LUBlock returns the compute time and face bytes of one LU k-block.
func (w Workload) LUBlock() (compute sim.Duration, face int64) {
	return w.PerIterCompute / (2 * luBlocks), max(w.FaceBytes/luBlocks, 128)
}

// Slice places one MPI world as a band of whole rows inside a larger LU
// grid, so an engine that shards the grid can run each band in its own
// world. Only the vertical wavefront edge leaves the world; the hooks carry
// it and the residual all-reduce across bands.
type Slice struct {
	Cols  int // global grid columns; the world holds Size()/Cols rows
	First int // global rank of local rank 0

	Above, Below bool // rows exist above / below this world

	// RecvEdge returns the k-block face the off-world neighbour of grid
	// column col sent under tag: from above when down is set (lower sweep),
	// from below otherwise.
	RecvEdge func(r *mpi.Rank, col, tag int, down bool) payload.Buffer
	// SendEdge sends an n-byte k-block face to the off-world neighbour:
	// below when down is set, above otherwise.
	SendEdge func(r *mpi.Rank, col, tag int, n int64, down bool)
	// Allreduce runs the residual all-reduce across every band after done
	// iterations; final marks the closing one after the last iteration.
	Allreduce func(r *mpi.Rank, done int, final bool) payload.Buffer
}

// SliceApp returns the LU rank function for the band s describes, writing
// into res at global rank indices. Like App, call it once per world.
func (w Workload) SliceApp(res *Result, s *Slice) func(*mpi.Rank) {
	if w.Kernel != LU {
		panic(fmt.Sprintf("npb: %s has no LU grid to slice", w.Kernel))
	}
	return w.luApp(res, s)
}

// luApp is the SSOR solver skeleton: per iteration, a lower-triangular
// wavefront sweep (dependencies from north and west) and an upper-triangular
// sweep (dependencies from south and east) across a 2-D process grid, each
// pipelined in k-blocks, with a periodic residual all-reduce. A nil slice
// runs the whole grid in one world. Each sweep is one rank program (see
// luSweep), which the serial and the partitioned engine run alike.
func (w Workload) luApp(res *Result, s *Slice) func(*mpi.Rank) {
	sums := newSumPipe()
	return func(r *mpi.Rank) {
		sums.open(r.Size())
		defer sums.drain()
		id := r.ID()
		nx, ny := factor2D(r.Size())
		first, above, below := 0, false, false
		if s != nil {
			nx, ny = s.Cols, r.Size()/s.Cols
			first, above, below = s.First, s.Above, s.Below
		}
		ix, iy := id%nx, id/nx
		north, south, west, east := -1, -1, -1, -1
		if iy > 0 {
			north = id - nx
		}
		if iy < ny-1 {
			south = id + nx
		}
		if ix > 0 {
			west = id - 1
		}
		if ix < nx-1 {
			east = id + 1
		}
		// Off-world vertical edges: the band's top row has a neighbour above,
		// its bottom row one below.
		above = above && iy == 0
		below = below && iy == ny-1
		allreduce := func(done int, final bool) payload.Buffer {
			if s == nil {
				return r.Allreduce(40)
			}
			return s.Allreduce(r, done, final)
		}
		sw := &luSweep{s: s, ix: ix, sums: sums, rank: id}
		sw.compute, sw.face = w.LUBlock()
		for it := 0; it < w.Iterations; it++ {
			// Lower sweep (down) runs from the north-west corner, the upper
			// sweep from the south-east; each recvs its deps, computes a
			// k-block and forwards downstream, luBlocks times.
			for _, down := range [2]bool{true, false} {
				sw.vin, sw.hin, sw.vout, sw.hout, sw.edgeIn, sw.edgeOut = north, west, south, east, above, below
				sw.tagBase = it * 2 * luBlocks
				if !down {
					sw.vin, sw.hin, sw.vout, sw.hout, sw.edgeIn, sw.edgeOut = south, east, north, west, below, above
					sw.tagBase += luBlocks
				}
				sw.down, sw.b, sw.k = down, 0, 0
				r.Run(sw)
			}
			r.TouchMemory(uint64(it))
			if (it+1)%w.NormEvery == 0 {
				sums.addSum(id, sample(allreduce(it+1, false)))
			}
			res.IterDone[first+id] = it + 1
		}
		r.Barrier()
		sums.addSum(id, sample(allreduce(w.Iterations, true)))
		res.RankSums[first+id] = sums.sum(id)
		res.FinishedAt[first+id] = r.Proc().Now()
	}
}

// luSweep is one rank's wavefront sweep as an mpi.Program: per k-block, it
// receives its upstream faces (vertical, then horizontal), computes the
// block and sends its downstream faces, luBlocks times. A vertical
// neighbour outside the world is an off-world edge, served by the Slice
// hooks in the rank's coroutine (mpi.OpCall). Every received face enters the
// rank's verification sum through the world's pipeline, in program order.
// One luSweep serves all of a rank's sweeps, so a sweep allocates nothing.
type luSweep struct {
	s                    *Slice
	ix                   int // grid column
	vin, hin, vout, hout int // neighbour ranks, -1 for none
	edgeIn, edgeOut      bool
	down                 bool
	tagBase              int
	compute              sim.Duration
	face                 int64
	sums                 *sumPipe
	rank                 int // local rank in the world
	b, k                 int // the next operation: k-th step of block b
}

// Steps of a k-block, in order, and the OpCall selectors of the edge hooks.
const (
	luVIn = iota
	luHIn
	luCompute
	luVOut
	luHOut
	luSteps

	luEdgeRecv = 0
	luEdgeSend = 1
)

// Next implements mpi.Program.
func (sw *luSweep) Next() mpi.Op {
	for sw.b < luBlocks {
		tag, k := sw.tagBase+sw.b, sw.k
		if sw.k++; sw.k == luSteps {
			sw.b, sw.k = sw.b+1, 0
		}
		switch {
		case k == luVIn && sw.vin >= 0:
			return mpi.Op{Kind: mpi.OpRecv, Peer: sw.vin, Tag: tag}
		case k == luVIn && sw.edgeIn:
			return mpi.Op{Kind: mpi.OpCall, Peer: luEdgeRecv, Tag: tag}
		case k == luHIn && sw.hin >= 0:
			return mpi.Op{Kind: mpi.OpRecv, Peer: sw.hin, Tag: tag}
		case k == luCompute:
			return mpi.Op{Kind: mpi.OpCompute, D: sw.compute}
		case k == luVOut && sw.vout >= 0:
			return mpi.Op{Kind: mpi.OpSend, Peer: sw.vout, Tag: tag, N: sw.face}
		case k == luVOut && sw.edgeOut:
			return mpi.Op{Kind: mpi.OpCall, Peer: luEdgeSend, Tag: tag}
		case k == luHOut && sw.hout >= 0:
			return mpi.Op{Kind: mpi.OpSend, Peer: sw.hout, Tag: tag, N: sw.face}
		}
	}
	return mpi.Op{}
}

// Received implements mpi.Program.
func (sw *luSweep) Received(data payload.Buffer) { sw.sums.add(sw.rank, data) }

// Call implements mpi.Program: the off-world edge hooks.
func (sw *luSweep) Call(r *mpi.Rank, op mpi.Op) {
	if op.Peer == luEdgeRecv {
		sw.sums.add(sw.rank, sw.s.RecvEdge(r, sw.ix, op.Tag, sw.down))
		return
	}
	sw.s.SendEdge(r, sw.ix, op.Tag, sw.face, sw.down)
}

// adiApp is the BT/SP skeleton: ADI sweeps along x, y and a diagonal per
// iteration over a square process grid (the multi-partition scheme's cyclic
// neighbour exchanges), with a periodic residual all-reduce. Each iteration
// is one rank program (see adiIter).
func (w Workload) adiApp(res *Result) func(*mpi.Rank) {
	sums := newSumPipe()
	return func(r *mpi.Rank) {
		n := r.Size()
		sums.open(n)
		defer sums.drain()
		id := r.ID()
		q := isqrt(n)
		ix, iy := id%q, id/q
		at := func(x, y int) int { return ((y+q)%q)*q + (x+q)%q }
		// x sweep: ring exchange along the row; y sweep: along the column;
		// z sweep: diagonal exchange (multi-partition wrap).
		it := &adiIter{
			compute: w.PerIterCompute / 3,
			face:    w.FaceBytes,
			to:      [3]int{at(ix+1, iy), at(ix, iy+1), at(ix+1, iy+1)},
			from:    [3]int{at(ix-1, iy), at(ix, iy-1), at(ix-1, iy-1)},
			sums:    sums,
			rank:    id,
		}
		for i := 0; i < w.Iterations; i++ {
			it.tagBase, it.k = i*8, 0
			r.Run(it)
			r.TouchMemory(uint64(i))
			if (i+1)%w.NormEvery == 0 {
				sums.addSum(id, sample(r.Allreduce(40)))
			}
			res.IterDone[id] = i + 1
		}
		r.Barrier()
		sums.addSum(id, sample(r.Allreduce(40)))
		res.RankSums[id] = sums.sum(id)
		res.FinishedAt[id] = r.Proc().Now()
	}
}

// adiIter is one BT/SP iteration as an mpi.Program: per sweep (x, y, then
// the diagonal) it computes a third of the iteration, then exchanges faces
// with the sweep's neighbours in one Sendrecv. Every received face enters
// the rank's verification sum through the world's pipeline, in program
// order. One adiIter serves all of a rank's iterations, so an iteration
// allocates nothing.
type adiIter struct {
	compute  sim.Duration
	face     int64
	to, from [3]int // per sweep: the neighbour sent to, the one received from
	sums     *sumPipe
	rank     int
	tagBase  int
	k        int // the next operation: compute on even k, exchange on odd
}

// Next implements mpi.Program.
func (a *adiIter) Next() mpi.Op {
	k := a.k
	if k == 6 {
		return mpi.Op{}
	}
	a.k++
	if k%2 == 0 {
		return mpi.Op{Kind: mpi.OpCompute, D: a.compute}
	}
	s := k / 2
	tag := a.tagBase + s
	return mpi.Op{Kind: mpi.OpSendrecv, Peer: a.to[s], Tag: tag, N: a.face, From: a.from[s], RecvTag: tag}
}

// Received implements mpi.Program.
func (a *adiIter) Received(data payload.Buffer) { a.sums.add(a.rank, data) }

// Call implements mpi.Program; an iteration has no OpCall.
func (a *adiIter) Call(*mpi.Rank, mpi.Op) {}
