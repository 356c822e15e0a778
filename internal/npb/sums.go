package npb

import (
	"sync"

	"ibmig/internal/payload"
)

// Verification sums.
//
// A rank's verification sum folds a checksum of every payload it receives,
// in receive order: acc = acc*fnvPrime ^ sample(b), where sample reads at
// most the first sampleBytes of b. Hashing those samples was about a third
// of the host time of the paper-scale LU comparison, and it is pure: the
// checksum of a synthetic run is a function of its (seed, off, n) alone. So each MPI world keeps
// one sumPipe. A rank hands it the descriptor of every received inline run;
// a helper goroutine checksums the descriptors in batches, off the event
// loop; and the engine's thread folds finished batches into the per-rank
// accumulators in the order the batches were filled, which keeps every
// rank's receive order. Payloads that are not one inline run (spilled and
// byte buffers, the all-reduce result) are checksummed on the engine's
// thread and enter the same stream as finished sums. The sums are the ones
// the serial fold computes (TestFoldPipelineMatchesSerial, and the pinned
// sums in internal/exp).
//
// The helper touches nothing but the batches handed to it: no engine, rank
// or simulated state. It exits as soon as its queue is empty, so it never
// outlives a run, even one stopped before its ranks read their sums. Such a
// run still returns its batches: each rank's function defers drain, which
// runs when Shutdown unwinds the rank.

const (
	// sampleBytes is how much of a received payload its checksum reads:
	// content-sensitive but cheap.
	sampleBytes = 4096

	fnvPrime = 1099511628211

	// batchItems is the number of samples handed to the helper at a time,
	// and queueDepth the number of batches in flight before the engine's
	// thread waits for the oldest.
	batchItems = 256
	queueDepth = 8
)

// sample is the checksum a received payload contributes to its rank's sum.
func sample(b payload.Buffer) uint64 {
	return b.Slice(0, min(b.Size(), sampleBytes)).Checksum()
}

// item is one received payload in a rank's stream: an inline synthetic run
// still to be checksummed (n > 0, v its seed) or a finished checksum (n == 0,
// v the sum).
type item struct {
	v    uint64
	off  int64
	rank int32
	n    int32
}

// batch is a run of items, filled on the engine's thread and checksummed by
// the helper.
type batch struct {
	n     int
	items [batchItems]item
}

// checksum finishes every item of the batch. It is the helper's only work.
func (b *batch) checksum() {
	for i := range b.items[:b.n] {
		if it := &b.items[i]; it.n > 0 {
			it.v, it.n = payload.Synth(it.v, it.off, int64(it.n)).Checksum(), 0
		}
	}
}

// freeBatches recycles batches across every pipeline in the process, so a
// run's steady state allocates none. Pipelines of a partitioned run live on
// different worker goroutines; this list is the only npb state they share.
// minted counts the batches ever allocated.
var freeBatches struct {
	sync.Mutex
	list   []*batch
	minted int
}

// maxFreeBatches bounds the free list: enough for several worlds' batches
// in flight at once.
const maxFreeBatches = 64

func getBatch() *batch {
	freeBatches.Lock()
	defer freeBatches.Unlock()
	if n := len(freeBatches.list); n > 0 {
		b := freeBatches.list[n-1]
		freeBatches.list = freeBatches.list[:n-1]
		return b
	}
	freeBatches.minted++
	return new(batch)
}

func putBatch(b *batch) {
	b.n = 0
	freeBatches.Lock()
	defer freeBatches.Unlock()
	if len(freeBatches.list) < maxFreeBatches {
		freeBatches.list = append(freeBatches.list, b)
	}
}

// sumPipe is one MPI world's verification-sum pipeline. Every method but
// work runs on the world's engine thread.
type sumPipe struct {
	acc      []uint64 // per-rank accumulators
	cur      *batch   // the batch being filled, nil when none
	inflight int      // batches handed to the helper and not yet folded

	queue chan *batch // to the helper, in fill order
	done  chan *batch // back from the helper, in fill order

	mu      sync.Mutex
	running bool // a helper is running; guarded by mu

	// helper is work bound once: `go s.work()` would allocate a closure
	// at every helper start, and a helper starts about once a batch.
	helper func()
}

func newSumPipe() *sumPipe {
	s := &sumPipe{
		queue: make(chan *batch, queueDepth),
		done:  make(chan *batch, queueDepth),
	}
	s.helper = s.work
	return s
}

// open sizes the accumulators for a world of size ranks. Every rank calls it
// as it starts; the first call allocates.
func (s *sumPipe) open(size int) {
	if s.acc == nil {
		s.acc = make([]uint64, size)
	}
}

// add appends a payload rank received to rank's stream: an inline run as a
// descriptor for the helper, anything else as its checksum.
func (s *sumPipe) add(rank int, b payload.Buffer) {
	if seed, off, ok := b.InlineRun(); ok {
		s.push(item{v: seed, off: off, rank: int32(rank), n: int32(min(b.Size(), sampleBytes))})
		return
	}
	s.addSum(rank, sample(b))
}

// addSum appends a finished checksum to rank's stream.
func (s *sumPipe) addSum(rank int, v uint64) { s.push(item{v: v, rank: int32(rank)}) }

func (s *sumPipe) push(it item) {
	if s.cur == nil {
		s.cur = getBatch()
	}
	s.cur.items[s.cur.n] = it
	if s.cur.n++; s.cur.n == batchItems {
		s.submit()
	}
}

// submit hands the full current batch to the helper, starting one if none
// is running. It first folds whatever the helper has finished, and waits
// for the oldest batch when queueDepth are in flight, so neither channel
// ever holds more than its capacity.
func (s *sumPipe) submit() {
	if s.inflight == queueDepth {
		s.collect()
	}
	for len(s.done) > 0 {
		s.collect()
	}
	s.queue <- s.cur
	s.cur = nil
	s.inflight++
	s.mu.Lock()
	start := !s.running
	s.running = true
	s.mu.Unlock()
	if start {
		go s.helper()
	}
}

// work is the helper: it checksums queued batches in order and exits when
// the queue is empty. Checking the queue and clearing running under mu pairs
// with submit's check of running after its send, so a queued batch always
// has a helper.
func (s *sumPipe) work() {
	for {
		var b *batch
		s.mu.Lock()
		select {
		case b = <-s.queue:
		default:
			s.running = false
		}
		s.mu.Unlock()
		if b == nil {
			return
		}
		b.checksum()
		s.done <- b
	}
}

// collect folds the oldest batch in flight, waiting for the helper to
// finish it.
func (s *sumPipe) collect() {
	s.inflight--
	s.fold(<-s.done)
}

// fold folds a finished batch into the accumulators and recycles it.
func (s *sumPipe) fold(b *batch) {
	for _, it := range b.items[:b.n] {
		s.acc[it.rank] = s.acc[it.rank]*fnvPrime ^ it.v
	}
	putBatch(b)
}

// sum drains the pipeline and returns rank's verification sum.
func (s *sumPipe) sum(rank int) uint64 {
	s.drain()
	return s.acc[rank]
}

// drain folds every batch in flight, then the partial batch, which is
// checksummed here rather than handed over, so the pipeline holds no batch
// until the next add. Folding early leaves every sum as it is: each batch
// still folds in fill order. It is idempotent, and each rank's function
// defers it, so a run stopped before its ranks read their sums returns its
// batches to the free list when Shutdown unwinds the ranks.
func (s *sumPipe) drain() {
	for s.inflight > 0 {
		s.collect()
	}
	if b := s.cur; b != nil {
		s.cur = nil
		b.checksum()
		s.fold(b)
	}
}
