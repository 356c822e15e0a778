package payload

import (
	"encoding/binary"
	"sync"
)

// The checksum is an FNV-1a-style multiply-xor chain folded over 64-bit
// little-endian lanes of the byte stream, finished with the stream length and
// a final mixer. It is defined over the *bytes* of a buffer — two buffers
// with identical content but different part fragmentation always hash
// equal — and it exists purely for in-process integrity comparisons (the
// restarted image must equal the checkpointed one); it is never persisted, so
// the algorithm can evolve freely.
//
// Folding whole lanes instead of single bytes matters: checkpoint images are
// gigabytes, and the previous byte-at-a-time FNV loop (one multiply per byte,
// after materializing synthetic content into a scratch window) dominated the
// CPU profile of every migration-vs-CR comparison at ~45%. The lane fold does
// one multiply per 8 bytes, and for lane-aligned synthetic parts — the common
// case by far: process images are built from MB-scale aligned synthetic
// parts — feeds the generator's lane values straight into the hash with no
// materialization at all.

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// hasher folds a byte stream incrementally. Feed order matters; fragment
// boundaries do not. The zero value then h=fnvOffset is set by newHasher.
type hasher struct {
	h    uint64
	pend uint64 // little-endian partial lane, np valid bytes
	np   uint   // pending byte count, 0..7
	n    uint64 // total bytes folded
}

func newHasher() hasher { return hasher{h: fnvOffset} }

// lane folds 8 stream-aligned bytes presented as a little-endian uint64.
// Callers must ensure np == 0.
func (s *hasher) lane(v uint64) {
	s.h = (s.h ^ v) * fnvPrime
	s.n += 8
}

// writeByte folds a single byte.
func (s *hasher) writeByte(b byte) {
	s.pend |= uint64(b) << (8 * s.np)
	s.np++
	s.n++
	if s.np == 8 {
		s.h = (s.h ^ s.pend) * fnvPrime
		s.pend, s.np = 0, 0
	}
}

// write folds an arbitrary byte slice.
func (s *hasher) write(b []byte) {
	i := 0
	for s.np != 0 && i < len(b) {
		s.writeByte(b[i])
		i++
	}
	for ; i+8 <= len(b); i += 8 {
		s.lane(binary.LittleEndian.Uint64(b[i:]))
	}
	for ; i < len(b); i++ {
		s.writeByte(b[i])
	}
}

// sum finishes the hash. The partial lane and the total length are folded in
// so that streams differing only by trailing zero bytes still differ.
func (s *hasher) sum() uint64 {
	h := s.h
	if s.np > 0 {
		h = (h ^ s.pend) * fnvPrime
	}
	h = (h ^ s.n) * fnvPrime
	return mix64(h)
}

// feed folds the part's content into s.
func (p Part) feed(s *hasher) {
	if p.Bytes != nil {
		s.write(p.Bytes)
		return
	}
	if s.np == 0 && p.Off&7 == 0 {
		p.feedAlignedSynth(s)
		return
	}
	// Misaligned synthetic content: materialize in pooled windows.
	buf := scratchGet()
	size := p.Size()
	for off := int64(0); off < size; {
		n := size - off
		if n > scratchSize {
			n = scratchSize
		}
		p.fill((*buf)[:n], off)
		s.write((*buf)[:n])
		off += n
	}
	scratchPut(buf)
}

// feedAlignedSynth folds a lane-aligned synthetic part without materializing
// it: the generator already produces content one 64-bit lane at a time.
// Large parts go through the checksum cache, since migration + CR
// comparisons re-hash identical images many times per experiment.
func (p Part) feedAlignedSynth(s *hasher) {
	if p.N >= ckMinBytes && p.N&7 == 0 {
		if h, ok := ckLookup(p.Seed, p.Off, p.N, s.h); ok {
			s.h = h
			s.n += uint64(p.N)
			return
		}
		hIn := s.h
		p.foldLanes(s)
		ckStore(p.Seed, p.Off, p.N, hIn, s.h)
		return
	}
	p.foldLanes(s)
	tail := p.N &^ 7
	for pos := p.Off + tail; pos < p.Off+p.N; pos++ {
		s.writeByte(synthByte(p.Seed, pos))
	}
}

// laneKey is the generator's per-lane key step: lane i of a synthetic part
// is mix64(seed ^ i*laneKey) (see synthByte). laneKey2..4 are its multiples,
// wrapped to 64 bits as the running key wraps.
const (
	laneKey  = 0x9e3779b97f4a7c15
	laneKey2 = 2 * laneKey % (1 << 64)
	laneKey3 = 3 * laneKey % (1 << 64)
	laneKey4 = 4 * laneKey % (1 << 64)
)

// foldLanes folds the part's whole lanes (N&^7 bytes) into s. The lane key
// runs (k += laneKey instead of lane*laneKey), and four lanes are generated
// per round: their mixes are independent, so they overlap in the pipeline,
// and only the multiply-xor chain is serial. The result is bit-identical to
// the one-lane loop (TestFoldLanesMatchesOneLane, FuzzFoldLanes); npb's
// fold, which samples every received LU face, spends most of its time here.
func (p Part) foldLanes(s *hasher) {
	k := uint64(p.Off>>3) * laneKey
	seed, h := p.Seed, s.h
	rem := p.N >> 3
	for ; rem >= 4; rem -= 4 {
		v0 := mix64(seed ^ k)
		v1 := mix64(seed ^ (k + laneKey))
		v2 := mix64(seed ^ (k + laneKey2))
		v3 := mix64(seed ^ (k + laneKey3))
		h = (h ^ v0) * fnvPrime
		h = (h ^ v1) * fnvPrime
		h = (h ^ v2) * fnvPrime
		h = (h ^ v3) * fnvPrime
		k += laneKey4
	}
	for ; rem > 0; rem-- {
		h = (h ^ mix64(seed^k)) * fnvPrime
		k += laneKey
	}
	s.h = h
	s.n += uint64(p.N &^ 7)
}

// scratchPool recycles materialization windows across all streaming
// operations (checksum fallback, Equal) instead of burning a 64 KB stack
// frame per call.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, scratchSize)
	return &b
}}

func scratchGet() *[]byte  { return scratchPool.Get().(*[]byte) }
func scratchPut(b *[]byte) { scratchPool.Put(b) }
