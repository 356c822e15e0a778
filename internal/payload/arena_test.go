package payload

import (
	"strings"
	"testing"
)

// Overwriting a full extent retires the old node into the tree's
// current-epoch batch; nothing is recycled until AdvanceEpoch closes that
// epoch, after which the next allocation reclaims the batch.
func TestArenaEpochGatesRecycling(t *testing.T) {
	tr := NewTree(Synth(1, 0, 4096))
	tr.Splice(0, 4096, Synth(2, 0, 4096))
	if tr.retiredN == 0 {
		t.Fatal("full overwrite retired no nodes")
	}
	firstBatch := tr.retiredN

	// Same epoch: more churn grows the batch, reclaims nothing.
	before := ArenaSnapshot()
	tr.Splice(0, 4096, Synth(3, 0, 4096))
	if tr.retiredN <= firstBatch {
		t.Fatalf("retired list %d, want > %d (same-epoch churn must not reclaim)", tr.retiredN, firstBatch)
	}
	if s := ArenaSnapshot(); s.EpochFrees != before.EpochFrees {
		t.Fatalf("epoch frees moved %d -> %d within one epoch", before.EpochFrees, s.EpochFrees)
	}

	// Closed epoch: the next allocation moves the batch to the free list and
	// serves from it.
	before = ArenaSnapshot()
	AdvanceEpoch()
	tr.Splice(0, 4096, Synth(4, 0, 4096))
	after := ArenaSnapshot()
	if after.EpochFrees == before.EpochFrees {
		t.Error("no nodes reclaimed after the epoch closed")
	}
	if after.Recycled == before.Recycled {
		t.Error("allocation after reclaim did not hit the free list")
	}
	if tr.retiredN != 1 {
		t.Errorf("retired list holds %d nodes, want 1 (only the node this overwrite retired)", tr.retiredN)
	}
}

// Poison mode stamps retired nodes with sentinels and validates them when
// the node comes back out of the free list: a stale holder scribbling on a
// retired node must trip the reuse check.
func TestArenaPoisonCatchesUseAfterFree(t *testing.T) {
	prev := SetPoisonFreed(true)
	defer SetPoisonFreed(prev)

	tr := NewTree(Synth(1, 0, 4096))
	tr.Splice(0, 4096, Synth(2, 0, 4096)) // retires + poisons the old node
	n := tr.retired
	if n == nil {
		t.Fatal("overwrite left no retired node")
	}
	n.pri = 12345 // the use-after-free: a stale reference writes to freed memory
	AdvanceEpoch()

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("scribbled retired node was reused without tripping poison validation")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "poison") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	tr.Splice(0, 4096, Synth(3, 0, 4096)) // reclaims the batch, reuses the node
}

// Retiring the same node twice under poison mode is detected immediately.
func TestArenaPoisonCatchesDoubleRetire(t *testing.T) {
	prev := SetPoisonFreed(true)
	defer SetPoisonFreed(prev)

	tr := NewTree(Synth(1, 0, 4096))
	tr.Splice(0, 4096, Synth(2, 0, 4096))
	n := tr.retired
	if n == nil {
		t.Fatal("overwrite left no retired node")
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double retire went undetected")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "double retire") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	tr.retireNode(n)
}

// Release is the leak backstop: after a fleet of trees with churned content
// is released, the live-extent level returns exactly to its pre-test
// baseline, no retired nodes linger, and the nodes are back in the pool.
func TestArenaReleaseReturnsToBaseline(t *testing.T) {
	baseLive := DataPlaneSnapshot().LiveExtents
	before := ArenaSnapshot()

	var trees []*Tree
	for i := 0; i < 32; i++ {
		tr := NewTree(Synth(uint64(i+1), 0, 1<<16))
		for j := 0; j < 8; j++ {
			tr.Splice(int64(j)*4096, 2048, Synth(uint64(1000+i*8+j), 0, 2048))
		}
		trees = append(trees, tr)
	}
	if live := DataPlaneSnapshot().LiveExtents; live <= baseLive {
		t.Fatalf("expected live-extent growth, have %d (baseline %d)", live, baseLive)
	}

	for _, tr := range trees {
		tr.Release()
	}
	if live := DataPlaneSnapshot().LiveExtents; live != baseLive {
		t.Errorf("live extents %d after release, want baseline %d", live, baseLive)
	}
	after := ArenaSnapshot()
	if after.RetiredNodes != before.RetiredNodes {
		t.Errorf("retired nodes %d after release, want %d (release must flush)", after.RetiredNodes, before.RetiredNodes)
	}
	if after.FreeNodes < before.FreeNodes {
		t.Errorf("free pool shrank %d -> %d across a full lifecycle", before.FreeNodes, after.FreeNodes)
	}
}

// Splice coalesces at every seam, so trees built through the public API are
// already maximally coalesced and Compact finds nothing. Real fragmentation
// therefore needs direct node surgery: sixteen contiguous slices of one
// synthetic run inserted as separate nodes.
func TestCompactMergesFragmentedRun(t *testing.T) {
	tr := &Tree{}
	for i := 0; i < 16; i++ {
		tr.root = emerge(tr.root, tr.newNode(Part{Seed: 7, Off: int64(i) * 512, N: 512}))
	}
	if got := tr.Extents(); got != 16 {
		t.Fatalf("fragmented tree has %d extents, want 16", got)
	}
	sum := tr.Checksum()
	before := ArenaSnapshot()

	if reclaimed := tr.Compact(); reclaimed != 15 {
		t.Errorf("Compact reclaimed %d extents, want 15", reclaimed)
	}
	if got := tr.Extents(); got != 1 {
		t.Errorf("compacted tree has %d extents, want 1", got)
	}
	if got := tr.Size(); got != 16*512 {
		t.Errorf("compacted size %d, want %d", got, 16*512)
	}
	if got := tr.Checksum(); got != sum {
		t.Errorf("compaction changed content: checksum %#x -> %#x", sum, got)
	}
	after := ArenaSnapshot()
	if after.Compactions != before.Compactions+1 {
		t.Errorf("compactions counter %d, want %d", after.Compactions, before.Compactions+1)
	}
	if after.CompactedAway != before.CompactedAway+15 {
		t.Errorf("compacted-away counter %d, want %d", after.CompactedAway, before.CompactedAway+15)
	}

	// A coalesced tree compacts to nothing, without a rebuild.
	if again := tr.Compact(); again != 0 {
		t.Errorf("second Compact reclaimed %d, want 0", again)
	}
	tr.Release()
}

// Splice-built trees stay coalesced without Compact's help: an overwrite
// split healed by re-splicing the original content leaves one extent.
func TestSpliceReCoalescesWithoutCompact(t *testing.T) {
	tr := NewTree(Synth(9, 0, 1<<20))
	tr.Splice(4096, 4096, Synth(10, 0, 4096))
	if got := tr.Extents(); got != 3 {
		t.Fatalf("overwrite split into %d extents, want 3", got)
	}
	tr.Splice(4096, 4096, Synth(9, 4096, 4096)) // restore the original run
	if got := tr.Extents(); got != 1 {
		t.Errorf("healed tree has %d extents, want 1 (seam coalescing)", got)
	}
	if got := tr.Compact(); got != 0 {
		t.Errorf("Compact found %d extents to merge in a Splice-built tree", got)
	}
	tr.Release()
}

func TestPeakLiveExtentsHighWater(t *testing.T) {
	ResetPeakLiveExtents()
	base := DataPlaneSnapshot().LiveExtents

	var trees []*Tree
	for i := 0; i < 100; i++ {
		trees = append(trees, NewTree(Synth(uint64(i+1), 0, 512)))
	}
	peak := ArenaSnapshot().PeakLiveExtents
	if peak < base+100 {
		t.Fatalf("peak %d, want >= %d", peak, base+100)
	}
	for _, tr := range trees {
		tr.Release()
	}
	if got := ArenaSnapshot().PeakLiveExtents; got != peak {
		t.Errorf("peak moved %d -> %d after release; the high-water mark is sticky", peak, got)
	}
	if prev := ResetPeakLiveExtents(); prev != peak {
		t.Errorf("reset returned %d, want the old peak %d", prev, peak)
	}
	if got := ArenaSnapshot().PeakLiveExtents; got != base {
		t.Errorf("peak %d after reset, want current level %d", got, base)
	}
}

// Steady-state splice churn with periodic epoch closes runs entirely out of
// the recycled pool: the allocs-per-op guard for the arena, in the spirit of
// TestSameTimeBatchAllocs for the event loop.
func TestSpliceChurnAllocs(t *testing.T) {
	tr := NewTree(Synth(1, 0, 64*4096))
	// Per-slot buffers with Off=0 never continue a neighbour's run, so the
	// tree holds a stable ~64 extents and every write splits and retires.
	bufs := make([]Buffer, 64)
	for i := range bufs {
		bufs[i] = Synth(uint64(2+i), 0, 4096)
	}
	churn := func(i int) {
		tr.Splice(int64(i%64)*4096, 4096, bufs[(i+i/64)%64])
		if i%16 == 15 {
			AdvanceEpoch()
		}
	}
	for i := 0; i < 512; i++ { // warm the free list and the ins scratch
		churn(i)
	}
	i := 512
	avg := testing.AllocsPerRun(2000, func() {
		churn(i)
		i++
	})
	if avg >= 1 {
		t.Errorf("steady-state splice churn allocates %.2f objects/op, want < 1", avg)
	}
	tr.Release()
}

// Delta subtracts the flow counters and keeps the level fields absolute.
func TestArenaStatsDelta(t *testing.T) {
	since := ArenaStats{Chunks: 1, FreeNodes: 2, RetiredNodes: 3, Recycled: 4, Minted: 5,
		EpochFrees: 6, EpochsClosed: 7, PeakLiveExtents: 8, Compactions: 9, CompactedAway: 10}
	now := ArenaStats{Chunks: 11, FreeNodes: 12, RetiredNodes: 13, Recycled: 14, Minted: 15,
		EpochFrees: 16, EpochsClosed: 17, PeakLiveExtents: 18, Compactions: 19, CompactedAway: 20}
	want := ArenaStats{Chunks: 11, FreeNodes: 12, RetiredNodes: 13, Recycled: 10, Minted: 10,
		EpochFrees: 10, EpochsClosed: 10, PeakLiveExtents: 18, Compactions: 10, CompactedAway: 10}
	if got := now.Delta(since); got != want {
		t.Fatalf("Delta = %+v, want %+v", got, want)
	}
}
