package payload

import "fmt"

// Tree is a coalescing extent tree: an ordered sequence of Parts indexed by
// byte offset, supporting O(log n + k) range splice and slice. It is the
// mutable counterpart of Buffer — mem.Region and the VFS file stores are
// built on it — and exists because the flat part list made every Region.Write
// rebuild the whole content as a three-way concat: O(writes) descriptors
// copied per write, unbounded descriptor growth per region, and O(parts)
// scans per read.
//
// The implementation is an implicit-key treap (randomized BST keyed by byte
// position, heap-ordered by per-node priority) augmented with subtree byte
// and extent counts. Priorities come from a deterministic per-tree counter
// run through the payload mixer, so tree shape — like everything else in the
// simulator — is reproducible; it can only affect host-side wall time, never
// simulated results.
//
// Writes coalesce at every seam, which is what keeps the extent count
// bounded under sustained churn (aggregation pools are overwritten chunk by
// chunk forever): two adjacent synthetic extents merge when they continue the
// same seed's stream ((seed, off+n) meets (seed, off')), and two adjacent
// real-byte extents merge when their backing storage is contiguous in one
// allocation. A full-region overwrite therefore collapses the tree back to a
// single extent regardless of write history.
//
// The zero value is an empty, ready-to-use tree.
//
// Nodes are allocated from the slab arena (see arena.go): each tree owns a
// private free list plus an epoch-tagged retire list, so splice churn reuses
// nodes without a GC round trip and Tree.Release returns everything to the
// global pool when the owning lifecycle (region, file, checkpoint image)
// closes.
type Tree struct {
	root *extNode
	prng uint64 // deterministic priority stream
	ins  []Part // scratch for splice insertions, reused across calls

	// Arena state (host-side only; see arena.go).
	free        *extNode // tree-local free list, reusable now
	retired     *extNode // awaiting the close of retireEpoch
	freeN       int64
	retiredN    int64
	retireEpoch uint64 // epoch the current retired batch belongs to
}

type extNode struct {
	left, right *extNode
	part        Part
	pri         uint64
	bytes       int64 // subtree byte total
	cnt         int32 // subtree extent count
}

// NewTree returns a tree holding b's content.
func NewTree(b Buffer) *Tree {
	t := &Tree{}
	t.Splice(0, 0, b)
	return t
}

// Size returns the total content length in bytes.
func (t *Tree) Size() int64 { return nbytes(t.root) }

// Extents returns the number of extents (live descriptors) in the tree.
func (t *Tree) Extents() int { return int(ncnt(t.root)) }

func nbytes(n *extNode) int64 {
	if n == nil {
		return 0
	}
	return n.bytes
}

func ncnt(n *extNode) int32 {
	if n == nil {
		return 0
	}
	return n.cnt
}

func (t *Tree) newNode(p Part) *extNode {
	t.prng++
	notePeak(liveExtents.Add(1))
	n := t.alloc()
	n.part, n.pri, n.bytes, n.cnt = p, mix64(t.prng), p.Size(), 1
	return n
}

// upd recomputes n's subtree aggregates after a child change.
func upd(n *extNode) *extNode {
	n.bytes = n.part.Size()
	n.cnt = 1
	if n.left != nil {
		n.bytes += n.left.bytes
		n.cnt += n.left.cnt
	}
	if n.right != nil {
		n.bytes += n.right.bytes
		n.cnt += n.right.cnt
	}
	return n
}

// emerge joins two treaps whose contents are already ordered (every byte of a
// precedes every byte of b).
func emerge(a, b *extNode) *extNode {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.pri >= b.pri {
		a.right = emerge(a.right, b)
		return upd(a)
	}
	b.left = emerge(a, b.left)
	return upd(b)
}

// split divides n into (a, b) where a holds the first k bytes. When k falls
// inside an extent the extent is split in place — the descriptor is cut, no
// content is copied or materialized.
func (t *Tree) split(n *extNode, k int64) (a, b *extNode) {
	if n == nil {
		return nil, nil
	}
	lb := nbytes(n.left)
	ps := n.part.Size()
	switch {
	case k <= lb:
		a, n.left = t.split(n.left, k)
		return a, upd(n)
	case k >= lb+ps:
		n.right, b = t.split(n.right, k-lb-ps)
		return upd(n), b
	default:
		cut := k - lb
		extentSplits.Add(1)
		rn := t.newNode(n.part.Slice(cut, ps-cut))
		n.part = n.part.Slice(0, cut)
		nr := n.right
		n.right = nil
		return upd(n), emerge(rn, nr)
	}
}

// coalesce merges two parts that are adjacent in content order, if they can
// be represented as one extent: synthetic parts continuing the same seed
// stream, or real-byte parts whose slices are contiguous in one backing
// array.
func coalesce(a, b Part) (Part, bool) {
	if a.Bytes == nil && b.Bytes == nil {
		if b.Seed == a.Seed && b.Off == a.Off+a.N {
			return Part{Seed: a.Seed, Off: a.Off, N: a.N + b.N}, true
		}
		return Part{}, false
	}
	if a.Bytes != nil && b.Bytes != nil && len(b.Bytes) > 0 {
		if n := len(a.Bytes); cap(a.Bytes)-n >= len(b.Bytes) {
			ext := a.Bytes[:n+len(b.Bytes)]
			if &ext[n] == &b.Bytes[0] {
				return Part{Bytes: ext}, true
			}
		}
	}
	return Part{}, false
}

// lastNode returns the rightmost node of n (n must be non-nil).
func lastNode(n *extNode) *extNode {
	for n.right != nil {
		n = n.right
	}
	return n
}

// firstNode returns the leftmost node of n (n must be non-nil).
func firstNode(n *extNode) *extNode {
	for n.left != nil {
		n = n.left
	}
	return n
}

// setLastPart replaces the rightmost extent of n and fixes aggregates on the
// way back up.
func setLastPart(n *extNode, p Part) {
	if n.right == nil {
		n.part = p
	} else {
		setLastPart(n.right, p)
	}
	upd(n)
}

// setFirstPart replaces the leftmost extent of n and fixes aggregates.
func setFirstPart(n *extNode, p Part) {
	if n.left == nil {
		n.part = p
	} else {
		setFirstPart(n.left, p)
	}
	upd(n)
}

// dropLast removes the rightmost extent of n, returning the remaining tree.
// The removed node is retired into the tree's current epoch.
func (t *Tree) dropLast(n *extNode) *extNode {
	if n.right == nil {
		liveExtents.Add(-1)
		l := n.left
		t.retireNode(n)
		return l
	}
	n.right = t.dropLast(n.right)
	return upd(n)
}

// Splice replaces the byte range [off, off+del) with b's content, coalescing
// at both seams. del may be zero (pure insert, including append at off ==
// Size()) and b may be empty (pure delete). Cost is O(log n) plus the number
// of inserted parts; existing extents are cut and stitched as descriptors,
// never materialized.
func (t *Tree) Splice(off, del int64, b Buffer) {
	size := nbytes(t.root)
	if off < 0 || del < 0 || off+del > size {
		panic(fmt.Sprintf("payload: splice [%d,%d) of tree sized %d", off, off+del, size))
	}
	left, rest := t.split(t.root, off)
	mid, right := t.split(rest, del)
	if mid != nil {
		liveExtents.Add(-int64(mid.cnt))
		t.retireAll(mid)
	}

	// Collect the insertion run, coalescing internally.
	ins := t.ins[:0]
	var one [1]Part
	for _, p := range b.view(&one) {
		if p.Size() == 0 {
			continue
		}
		if len(ins) > 0 {
			if m, ok := coalesce(ins[len(ins)-1], p); ok {
				extentMerges.Add(1)
				ins[len(ins)-1] = m
				continue
			}
		}
		ins = append(ins, p)
	}
	// Left seam: absorb the first inserted part into left's last extent.
	if len(ins) > 0 && left != nil {
		if m, ok := coalesce(lastNode(left).part, ins[0]); ok {
			extentMerges.Add(1)
			setLastPart(left, m)
			ins = ins[1:]
		}
	}
	// Right seam: absorb the last inserted part into right's first extent.
	if len(ins) > 0 && right != nil {
		if m, ok := coalesce(ins[len(ins)-1], firstNode(right).part); ok {
			extentMerges.Add(1)
			setFirstPart(right, m)
			ins = ins[:len(ins)-1]
		}
	}
	// Everything absorbed (or a pure delete): the two outer seams now touch.
	if len(ins) == 0 && left != nil && right != nil {
		if m, ok := coalesce(lastNode(left).part, firstNode(right).part); ok {
			extentMerges.Add(1)
			left = t.dropLast(left)
			setFirstPart(right, m)
		}
	}
	var midNew *extNode
	for _, p := range ins {
		midNew = emerge(midNew, t.newNode(p))
	}
	t.ins = ins[:0]
	t.root = emerge(emerge(left, midNew), right)
}

// Slice returns [off, off+n) as a Buffer sharing the extents' part storage —
// a single descent, no mutation, no copying.
func (t *Tree) Slice(off, n int64) Buffer {
	size := nbytes(t.root)
	if off < 0 || n < 0 || off+n > size {
		panic(fmt.Sprintf("payload: slice [%d,%d) of tree sized %d", off, off+n, size))
	}
	var out Buffer
	if n == 0 {
		return out
	}
	collectRange(t.root, off, off+n, &out)
	return out
}

// collectRange appends the extents overlapping [lo, hi) — in subtree-local
// coordinates — to out, trimming the edge extents.
func collectRange(n *extNode, lo, hi int64, out *Buffer) {
	if n == nil || lo >= hi {
		return
	}
	lb := nbytes(n.left)
	ps := n.part.Size()
	if lo < lb {
		h := hi
		if h > lb {
			h = lb
		}
		collectRange(n.left, lo, h, out)
	}
	s, e := lo, hi
	if s < lb {
		s = lb
	}
	if e > lb+ps {
		e = lb + ps
	}
	if s < e {
		out.Append(n.part.Slice(s-lb, e-s))
	}
	if hi > lb+ps {
		l := lo - lb - ps
		if l < 0 {
			l = 0
		}
		collectRange(n.right, l, hi-lb-ps, out)
	}
}

// Buffer returns the full content as a Buffer sharing part storage.
func (t *Tree) Buffer() Buffer {
	var out Buffer
	appendTree(t.root, &out)
	return out
}

func appendTree(n *extNode, out *Buffer) {
	if n == nil {
		return
	}
	appendTree(n.left, out)
	out.Append(n.part)
	appendTree(n.right, out)
}

// Checksum folds the full content through the payload hasher in extent
// order. The hash depends only on bytes, never on fragmentation, so it
// equals the checksum of any Buffer with the same content.
func (t *Tree) Checksum() uint64 {
	s := newHasher()
	feedTree(t.root, &s)
	return s.sum()
}

func feedTree(n *extNode, s *hasher) {
	if n == nil {
		return
	}
	feedTree(n.left, s)
	n.part.feed(s)
	feedTree(n.right, s)
}

// Compact re-coalesces the whole tree: adjacent extents that continue the
// same synthetic stream (or are contiguous real-byte slices) but ended up as
// separate nodes — typically after interleaved partial overwrites under
// aggregation-pool churn — are merged, and the tree is rebuilt from the
// shorter run. Returns the number of extents eliminated (0 when the tree is
// already fully coalesced, in which case nothing is rebuilt).
//
// Content is untouched, so compaction is host-side only: simulated reads and
// checksums are identical before and after. Reclaimed nodes bypass the epoch
// delay — at this point the tree provably holds the only references.
func (t *Tree) Compact() int {
	n := int(ncnt(t.root))
	if n <= 1 {
		return 0
	}
	parts := t.ins[:0]
	parts = compactCollect(t.root, parts)
	t.ins = parts[:0]
	if len(parts) == n {
		return 0
	}
	liveExtents.Add(-int64(n))
	t.retireAll(t.root)
	t.root = nil
	t.flushRetired()
	var root *extNode
	for _, p := range parts {
		root = emerge(root, t.newNode(p))
	}
	t.root = root
	reclaimed := n - len(parts)
	compactions.Add(1)
	compactedAway.Add(uint64(reclaimed))
	return reclaimed
}

// compactCollect appends n's parts to out in content order, coalescing
// adjacent runs as it goes.
func compactCollect(n *extNode, out []Part) []Part {
	if n == nil {
		return out
	}
	out = compactCollect(n.left, out)
	if len(out) > 0 {
		if m, ok := coalesce(out[len(out)-1], n.part); ok {
			extentMerges.Add(1)
			out[len(out)-1] = m
		} else {
			out = append(out, n.part)
		}
	} else {
		out = append(out, n.part)
	}
	return compactCollect(n.right, out)
}
