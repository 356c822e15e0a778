package payload

import "sync"

// Checksum cache for large synthetic parts.
//
// The migration and Checkpoint/Restart comparison experiments checksum the
// same process images repeatedly: once when the image is captured, once per
// integrity verification after transfer or restart, and again for every
// experiment variant run over the same workload. A synthetic part's content
// is a pure function of (seed, off, n), so the fold of such a part into a
// running hash h is a pure function of (seed, off, n, h) — which makes the
// result cacheable with perfect fidelity. Only parts of at least ckMinBytes
// are cached, so the cache holds image-scale entries, not chatter.
//
// The cache is sharded and mutex-guarded: experiment engines are
// single-threaded, but the parallel sweep runner (internal/exp.RunParallel)
// runs many engines at once and they all share this cache. Caching affects
// wall time only, never results, so cross-engine sharing cannot break
// determinism — which is also why the partial eviction below may rely on
// Go's randomized map iteration order.
//
// The cache is bounded: each shard evicts a quarter of its entries once it
// reaches its share of the cap.

type ckKey struct {
	seed uint64
	off  int64
	n    int64
	hIn  uint64
}

const (
	ckShardCount = 16       // power of two
	ckMinBytes   = 64 << 10 // don't cache parts smaller than this

	// ckShardCap bounds each shard. Across all shards, at 32 bytes per
	// entry, this caps the memo at ~2 MiB of keys+values — enough for every
	// image in a 2048-rank sweep, small enough to never matter.
	ckShardCap = (16 << 12) / ckShardCount
)

type ckShard struct {
	mu sync.Mutex
	m  map[ckKey]uint64
}

var ckShards [ckShardCount]ckShard

func ckIndex(k ckKey) int {
	return int(mix64(k.seed^uint64(k.off)*0x9e3779b97f4a7c15^uint64(k.n)^k.hIn) & (ckShardCount - 1))
}

func ckLookup(seed uint64, off, n int64, hIn uint64) (uint64, bool) {
	k := ckKey{seed, off, n, hIn}
	sh := &ckShards[ckIndex(k)]
	sh.mu.Lock()
	v, ok := sh.m[k]
	sh.mu.Unlock()
	return v, ok
}

func ckStore(seed uint64, off, n int64, hIn, hOut uint64) {
	k := ckKey{seed, off, n, hIn}
	sh := &ckShards[ckIndex(k)]
	sh.mu.Lock()
	if sh.m == nil {
		sh.m = make(map[ckKey]uint64, ckShardCap/4)
	} else if len(sh.m) >= ckShardCap {
		// Evict a quarter of the shard. Which quarter is up to the map's
		// iteration order; a memo cache only trades wall time for memory,
		// so the choice cannot affect simulated results.
		drop := len(sh.m)/4 + 1
		for k := range sh.m {
			delete(sh.m, k)
			if drop--; drop == 0 {
				break
			}
		}
	}
	sh.m[k] = hOut
	sh.mu.Unlock()
}

// ResetChecksumCache empties the cache.
func ResetChecksumCache() {
	for i := range ckShards {
		sh := &ckShards[i]
		sh.mu.Lock()
		sh.m = nil
		sh.mu.Unlock()
	}
}
