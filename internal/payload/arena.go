package payload

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Slab arena for extent-tree nodes.
//
// The treap behind every mem.Region and VFS file allocates one extNode per
// extent. Before the arena, nodes detached by Splice (the mid subtree of an
// overwrite, the loser of a seam merge) were simply dropped for the garbage
// collector: at the 2048-rank sweep point that left 8.4M live extents and
// ~13 GB of cumulative allocation, most of it node churn and rendezvous
// plumbing that never needed to exist. The arena replaces the per-node GC
// round trip with explicit reuse:
//
//   - nodes come from pooled chunks (arenaChunkNodes per chunk, allocated in
//     one slab so neighbouring nodes share cache lines) handed out through a
//     process-wide free pool;
//   - each tree keeps a private free list, so steady-state Splice churn
//     recycles a tree's own nodes with no locking at all — the global pool
//     mutex is only taken once per refill batch or bulk release;
//   - nodes detached by a splice are not reusable immediately: they are
//     retired into the current reclamation epoch and only move to the free
//     list once the epoch has been closed (AdvanceEpoch) or the owning
//     lifecycle ends (Tree.Release — region released, file truncated or
//     removed, checkpoint image consumed, partitioned window barrier);
//   - a debug poison mode stamps retired nodes with sentinel values and
//     validates them on reallocation, so a use-after-free or double-free
//     panics loudly instead of silently corrupting a tree.
//
// Node reuse is host-side only: tree shape still comes from the per-tree
// deterministic priority stream, so the arena can never change simulated
// results (TestGoldenTraceUnchanged pins this).

// arenaChunkNodes is the slab size: nodes allocated per chunk.
const arenaChunkNodes = 256

// arenaGrabBatch is how many nodes a tree pulls from the global pool per
// refill (one lock acquisition amortized over this many allocations). Kept
// small: most trees are 1-3 extent regions, and whatever they grab they
// hold until Release — at 2048 ranks tens of thousands of trees hoarding a
// large batch each would dwarf the live-extent population.
const arenaGrabBatch = 8

// arenaFreeCap bounds a tree's private free list. Epoch reclaims can pile
// an arbitrary backlog of nodes onto one tree (a region overwritten in a
// loop); everything beyond the cap is banked back to the global pool so
// other trees mint no fresh slabs while one tree sits on the inventory.
const arenaFreeCap = 64

// Poison sentinels. cnt is never negative for a live node and pri never
// equals poisonPri for a node minted by mix64 of a small counter in any
// realistic run, so a retired node is cheaply distinguishable.
const (
	poisonPri  = 0xDEADDEADDEADDEAD
	poisonSeed = 0xFEEDFACECAFEBEEF
	poisonCnt  = -1
)

// arenaPool is the process-wide free pool: a singly-linked chain of nodes
// (threaded through extNode.left) shared by all trees in all engines.
type arenaPool struct {
	mu   sync.Mutex
	head *extNode
	n    int64
}

var (
	arPool arenaPool

	// Arena telemetry (process-wide, host-side only).
	arenaChunks     atomic.Int64  // slabs ever allocated
	arenaFreeNodes  atomic.Int64  // nodes on free lists (global + per-tree)
	arenaRetired    atomic.Int64  // nodes parked in un-closed epochs
	arenaRecycled   atomic.Uint64 // allocations served from a free list
	arenaMinted     atomic.Uint64 // allocations served by a fresh chunk slot
	arenaEpochFrees atomic.Uint64 // nodes moved retired -> free at epoch close
	epochsClosed    atomic.Uint64 // AdvanceEpoch calls
	currentEpoch    atomic.Uint64 // the open reclamation epoch
	peakLiveExtents atomic.Int64  // high-water mark of liveExtents
	compactions     atomic.Uint64 // Tree.Compact passes that reclaimed nodes
	compactedAway   atomic.Uint64 // extents eliminated by compaction

	poisonFreed atomic.Bool // debug: poison retired nodes, validate on reuse
)

// SetPoisonFreed switches the use-after-free poison mode and returns the
// previous setting. With poison on, every retired node is stamped with
// sentinel content; reallocating a node whose sentinels were scribbled on
// (someone kept using it after retirement) or retiring a node twice panics.
func SetPoisonFreed(on bool) (prev bool) { return poisonFreed.Swap(on) }

// AdvanceEpoch closes the current reclamation epoch and opens the next one.
// Nodes retired under a closed epoch become reusable the next time their
// tree allocates or retires (the check is one comparison, paid lazily so an
// epoch close never walks every tree in the process). Lifecycle owners call
// this at their natural barriers: a checkpoint image verified and consumed,
// a partitioned execution window committing, a migration phase completing.
func AdvanceEpoch() {
	currentEpoch.Add(1)
	epochsClosed.Add(1)
}

// ArenaStats is a snapshot of the extent-arena telemetry: slab and free-list
// levels, recycling flow, epoch reclamation activity, and the live-extent
// high-water mark. It is process-wide and host-side only; capture before and
// after a run and Delta to attribute activity.
type ArenaStats struct {
	Chunks          int64  // node slabs allocated since process start
	FreeNodes       int64  // free-list depth (global pool + all trees)
	RetiredNodes    int64  // nodes awaiting an epoch close
	Recycled        uint64 // node allocations served from a free list
	Minted          uint64 // node allocations served by fresh chunk slots
	EpochFrees      uint64 // nodes reclaimed at epoch boundaries
	EpochsClosed    uint64 // reclamation epochs closed
	PeakLiveExtents int64  // high-water mark of live extents
	Compactions     uint64 // compaction passes that reclaimed extents
	CompactedAway   uint64 // extents eliminated by compaction
}

// Delta returns the activity between the since snapshot and this one. The
// level fields (Chunks, FreeNodes, RetiredNodes, PeakLiveExtents) keep their
// current absolute values — a peak or a pool depth has no meaningful
// difference — while the flow counters subtract.
func (s ArenaStats) Delta(since ArenaStats) ArenaStats {
	s.Recycled -= since.Recycled
	s.Minted -= since.Minted
	s.EpochFrees -= since.EpochFrees
	s.EpochsClosed -= since.EpochsClosed
	s.Compactions -= since.Compactions
	s.CompactedAway -= since.CompactedAway
	return s
}

func (s ArenaStats) String() string {
	return fmt.Sprintf(
		"arena: %d chunks | %d free | %d retired | %d recycled / %d minted | %d epoch frees over %d epochs | peak %d live extents | %d compactions (-%d extents)",
		s.Chunks, s.FreeNodes, s.RetiredNodes, s.Recycled, s.Minted,
		s.EpochFrees, s.EpochsClosed, s.PeakLiveExtents, s.Compactions, s.CompactedAway)
}

// ArenaSnapshot returns the current arena counter values.
func ArenaSnapshot() ArenaStats {
	return ArenaStats{
		Chunks:          arenaChunks.Load(),
		FreeNodes:       arenaFreeNodes.Load(),
		RetiredNodes:    arenaRetired.Load(),
		Recycled:        arenaRecycled.Load(),
		Minted:          arenaMinted.Load(),
		EpochFrees:      arenaEpochFrees.Load(),
		EpochsClosed:    epochsClosed.Load(),
		PeakLiveExtents: peakLiveExtents.Load(),
		Compactions:     compactions.Load(),
		CompactedAway:   compactedAway.Load(),
	}
}

// ResetPeakLiveExtents rebaselines the peak-live-extents high-water mark to
// the current level and returns the old peak (benchmarks isolate a run by
// resetting before and reading after).
func ResetPeakLiveExtents() int64 {
	return peakLiveExtents.Swap(liveExtents.Load())
}

// notePeak records a new liveExtents level in the high-water mark.
func notePeak(level int64) {
	for {
		old := peakLiveExtents.Load()
		if level <= old || peakLiveExtents.CompareAndSwap(old, level) {
			return
		}
	}
}

// grab pulls up to arenaGrabBatch nodes from the global pool as a chain, or
// mints a fresh chunk if the pool is empty. Returns the chain head and the
// number of nodes on it.
func (ap *arenaPool) grab() (*extNode, int64) {
	ap.mu.Lock()
	if ap.head == nil {
		ap.mu.Unlock()
		// Mint a slab, hand the caller one batch, bank the rest: giving a
		// whole chunk to one tree starves the pool and mints a slab per
		// tree instead of a slab per ~chunk/batch trees.
		chunk := newChunkSlab()
		chunk[arenaGrabBatch-1].left = nil
		ap.put(&chunk[arenaGrabBatch], &chunk[arenaChunkNodes-1], arenaChunkNodes-arenaGrabBatch)
		return &chunk[0], arenaGrabBatch
	}
	head := ap.head
	n := ap.head
	taken := int64(1)
	for taken < arenaGrabBatch && n.left != nil {
		n = n.left
		taken++
	}
	ap.head = n.left
	n.left = nil
	ap.n -= taken
	ap.mu.Unlock()
	return head, taken
}

// put returns a chain of count nodes (head..tail) to the global pool.
func (ap *arenaPool) put(head, tail *extNode, count int64) {
	if head == nil {
		return
	}
	ap.mu.Lock()
	tail.left = ap.head
	ap.head = head
	ap.n += count
	ap.mu.Unlock()
}

// newChunkSlab allocates one slab with its nodes chained in index order.
func newChunkSlab() []extNode {
	chunk := make([]extNode, arenaChunkNodes)
	for i := 0; i < arenaChunkNodes-1; i++ {
		chunk[i].left = &chunk[i+1]
	}
	arenaChunks.Add(1)
	arenaFreeNodes.Add(arenaChunkNodes)
	return chunk
}

// alloc hands the tree one node, refilling the tree-local free list from the
// global pool when it runs dry. Under poison mode the node's sentinels are
// validated: a mismatch means some holder scribbled on (or double-freed) a
// node after it was retired.
func (t *Tree) alloc() *extNode {
	t.reclaim()
	n := t.free
	if n == nil {
		var got int64
		t.free, got = arPool.grab()
		t.freeN = got
		n = t.free
		arenaMinted.Add(1)
	} else {
		arenaRecycled.Add(1)
	}
	t.free = n.left
	t.freeN--
	arenaFreeNodes.Add(-1)
	if poisonFreed.Load() && n.cnt == poisonCnt {
		if n.pri != poisonPri || n.part.Seed != poisonSeed || n.right != nil {
			panic(fmt.Sprintf("payload: arena poison violated on reuse (pri=%#x seed=%#x): use-after-free or double-free of a retired extent", n.pri, n.part.Seed))
		}
	}
	*n = extNode{}
	return n
}

// Careful accounting note: freeN counts only the tree-local list; global
// pool membership is tracked by arPool.n. arenaFreeNodes is the sum of both
// and is adjusted wherever nodes cross the allocated/free boundary.

// retireNode parks one detached node in the tree's current-epoch retire
// list. The node must already be unlinked from the tree (its subtree
// pointers are dead). Under poison mode it is stamped so later misuse trips.
func (t *Tree) retireNode(n *extNode) {
	t.reclaim() // free the previous batch first if its epoch has closed
	t.retireEpoch = currentEpoch.Load()
	if poisonFreed.Load() {
		if n.cnt == poisonCnt && n.pri == poisonPri {
			panic("payload: double retire of an extent node")
		}
		n.part = Part{Seed: poisonSeed, N: 0}
		n.pri = poisonPri
		n.bytes = 0
		n.cnt = poisonCnt
	}
	n.right = nil
	n.left = t.retired
	t.retired = n
	t.retiredN++
	arenaRetired.Add(1)
}

// retireAll retires every node of subtree n (post-order, so child links are
// consumed before they are overwritten by the retire chain).
func (t *Tree) retireAll(n *extNode) {
	if n == nil {
		return
	}
	l, r := n.left, n.right
	t.retireAll(l)
	t.retireAll(r)
	t.retireNode(n)
}

// reclaim moves the tree's retired nodes to its free list if the epoch they
// were retired under has since been closed. One comparison in the common
// case; the move itself is O(retired) and happens at most once per epoch.
func (t *Tree) reclaim() {
	if t.retired == nil || t.retireEpoch == currentEpoch.Load() {
		return
	}
	tail := t.retired
	for tail.left != nil {
		tail = tail.left
	}
	tail.left = t.free
	t.free = t.retired
	t.retired = nil
	t.freeN += t.retiredN
	arenaFreeNodes.Add(t.retiredN)
	arenaRetired.Add(-t.retiredN)
	arenaEpochFrees.Add(uint64(t.retiredN))
	t.retiredN = 0
	t.trimFree()
}

// trimFree banks everything beyond arenaFreeCap back to the global pool so
// a heavily-churned tree does not hoard its reclaim backlog privately. The
// walk is O(kept + banked), the same order as the reclaim move that grew
// the list. No counter changes: the nodes stay free, they just move pools.
func (t *Tree) trimFree() {
	if t.freeN <= arenaFreeCap {
		return
	}
	n := t.free
	for i := int64(1); i < arenaGrabBatch; i++ {
		n = n.left
	}
	excess, count := n.left, t.freeN-arenaGrabBatch
	n.left = nil
	t.freeN = arenaGrabBatch
	tail := excess
	for tail.left != nil {
		tail = tail.left
	}
	arPool.put(excess, tail, count)
}

// flushRetired force-reclaims the tree's retired nodes regardless of epoch.
// Only lifecycle owners may call it (Release, Compact): at those points the
// tree provably holds the only references.
func (t *Tree) flushRetired() {
	if t.retired == nil {
		return
	}
	tail := t.retired
	for tail.left != nil {
		tail = tail.left
	}
	tail.left = t.free
	t.free = t.retired
	t.retired = nil
	t.freeN += t.retiredN
	arenaFreeNodes.Add(t.retiredN)
	arenaRetired.Add(-t.retiredN)
	t.retiredN = 0
}

// Release ends the tree's lifecycle: every node — live, retired, and on the
// tree-local free list — is returned to the global pool in one batch, and
// the tree resets to empty (the zero value, reusable). This is the epoch
// close for the tree's owner: a released memory region, a truncated or
// removed file, a consumed checkpoint image.
func (t *Tree) Release() {
	if n := ncnt(t.root); n > 0 {
		liveExtents.Add(-int64(n))
	}
	t.retireAll(t.root)
	t.root = nil
	t.flushRetired()
	if t.free != nil {
		tail := t.free
		count := int64(1)
		for tail.left != nil {
			tail = tail.left
			count++
		}
		arPool.put(t.free, tail, count)
		t.free = nil
		t.freeN = 0
	}
	t.ins = nil
}
