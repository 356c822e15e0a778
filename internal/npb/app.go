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

// fold mixes a received payload into a rank's verification accumulator,
// sampling at most the first 4 KB (content-sensitive but cheap).
func fold(acc uint64, b payload.Buffer) uint64 {
	n := b.Size()
	if n > 4096 {
		n = 4096
	}
	return acc*1099511628211 ^ b.Slice(0, n).Checksum()
}

// App returns the rank function for this workload, writing into res.
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
// into res at global rank indices.
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
	return func(r *mpi.Rank) {
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
		sw := &luSweep{s: s, ix: ix}
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
				sw.acc = fold(sw.acc, allreduce(it+1, false))
			}
			res.IterDone[first+id] = it + 1
		}
		r.Barrier()
		sw.acc = fold(sw.acc, allreduce(w.Iterations, true))
		res.RankSums[first+id] = sw.acc
		res.FinishedAt[first+id] = r.Proc().Now()
	}
}

// luSweep is one rank's wavefront sweep as an mpi.Program: per k-block, it
// receives its upstream faces (vertical, then horizontal), computes the
// block and sends its downstream faces, luBlocks times. A vertical
// neighbour outside the world is an off-world edge, served by the Slice
// hooks in the rank's coroutine (mpi.OpCall). Every received face is folded
// into acc, the rank's verification accumulator, in program order. One
// luSweep serves all of a rank's sweeps, so a sweep allocates nothing.
type luSweep struct {
	s                    *Slice
	ix                   int // grid column
	vin, hin, vout, hout int // neighbour ranks, -1 for none
	edgeIn, edgeOut      bool
	down                 bool
	tagBase              int
	compute              sim.Duration
	face                 int64
	acc                  uint64
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
func (sw *luSweep) Received(data payload.Buffer) { sw.acc = fold(sw.acc, data) }

// Call implements mpi.Program: the off-world edge hooks.
func (sw *luSweep) Call(r *mpi.Rank, op mpi.Op) {
	if op.Peer == luEdgeRecv {
		sw.acc = fold(sw.acc, sw.s.RecvEdge(r, sw.ix, op.Tag, sw.down))
		return
	}
	sw.s.SendEdge(r, sw.ix, op.Tag, sw.face, sw.down)
}

// adiApp is the BT/SP skeleton: ADI sweeps along x, y and a diagonal per
// iteration over a square process grid (the multi-partition scheme's cyclic
// neighbour exchanges), with a periodic residual all-reduce.
func (w Workload) adiApp(res *Result) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		n := r.Size()
		q := isqrt(n)
		ix, iy := r.ID()%q, r.ID()/q
		at := func(x, y int) int { return ((y+q)%q)*q + (x+q)%q }
		third := w.PerIterCompute / 3
		var acc uint64
		for it := 0; it < w.Iterations; it++ {
			base := it * 8
			// x sweep: ring exchange along the row.
			r.Compute(third)
			acc = fold(acc, r.Sendrecv(at(ix+1, iy), base, w.FaceBytes, at(ix-1, iy), base))
			// y sweep: ring exchange along the column.
			r.Compute(third)
			acc = fold(acc, r.Sendrecv(at(ix, iy+1), base+1, w.FaceBytes, at(ix, iy-1), base+1))
			// z sweep: diagonal exchange (multi-partition wrap).
			r.Compute(third)
			acc = fold(acc, r.Sendrecv(at(ix+1, iy+1), base+2, w.FaceBytes, at(ix-1, iy-1), base+2))
			r.TouchMemory(uint64(it))
			if (it+1)%w.NormEvery == 0 {
				acc = fold(acc, r.Allreduce(40))
			}
			res.IterDone[r.ID()] = it + 1
		}
		r.Barrier()
		acc = fold(acc, r.Allreduce(40))
		res.RankSums[r.ID()] = acc
		res.FinishedAt[r.ID()] = r.Proc().Now()
	}
}
