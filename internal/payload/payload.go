// Package payload represents simulated data byte-accurately without always
// materializing it.
//
// Checkpoint images in this repository can total gigabytes (the paper's
// BT.C.64 dumps 2470.4 MB per Checkpoint/Restart cycle). Holding that in
// memory for every benchmark iteration is infeasible, but pure size
// accounting would make data-integrity claims untestable. Payload buffers
// square that circle: a Buffer is a sequence of Parts, each either real bytes
// (used by unit tests and small runs) or a synthetic reference
// (seed, offset, length) whose content is a deterministic function of its
// coordinates. Synthetic parts occupy O(1) memory, can be sliced at arbitrary
// byte offsets, materialized on demand, and checksummed in streaming fashion
// — so "the restarted image is bit-identical to the checkpointed one" remains
// a checkable property at full experiment scale.
package payload

import (
	"bytes"
	"fmt"
	"sort"
)

// scratchSize is the materialization window used by streaming operations.
const scratchSize = 64 * 1024

// Part is a contiguous run of simulated bytes: either materialized (Bytes
// non-nil) or synthetic (content determined by Seed and the absolute offset
// Off within seed's infinite stream).
type Part struct {
	Bytes []byte
	Seed  uint64
	Off   int64
	N     int64 // length of a synthetic part; ignored when Bytes != nil
}

// Size returns the part's length in bytes.
func (p Part) Size() int64 {
	if p.Bytes != nil {
		return int64(len(p.Bytes))
	}
	return p.N
}

// Slice returns the sub-part [off, off+n). It panics if out of range.
func (p Part) Slice(off, n int64) Part {
	if off < 0 || n < 0 || off+n > p.Size() {
		panic(fmt.Sprintf("payload: slice [%d,%d) of part sized %d", off, off+n, p.Size()))
	}
	if p.Bytes != nil {
		return Part{Bytes: p.Bytes[off : off+n]}
	}
	return Part{Seed: p.Seed, Off: p.Off + off, N: n}
}

// synthByte returns the content byte at absolute position pos of seed's
// stream. Content is generated in 8-byte lanes with a splitmix64-style mixer,
// so any byte is computable in O(1).
func synthByte(seed uint64, pos int64) byte {
	lane := uint64(pos >> 3)
	v := mix64(seed ^ lane*laneKey)
	return byte(v >> (8 * uint(pos&7)))
}

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// fill writes the part's content for [off, off+len(dst)) into dst. Synthetic
// content is generated in 8-byte lanes for speed; unaligned edges fall back
// to per-byte generation.
func (p Part) fill(dst []byte, off int64) {
	if p.Bytes != nil {
		copy(dst, p.Bytes[off:])
		return
	}
	base := p.Off + off
	i := 0
	// Head: bytes until the next lane boundary.
	for ; i < len(dst) && (base+int64(i))&7 != 0; i++ {
		dst[i] = synthByte(p.Seed, base+int64(i))
	}
	// Body: full lanes.
	for ; i+8 <= len(dst); i += 8 {
		lane := uint64(base+int64(i)) >> 3
		v := mix64(p.Seed ^ lane*laneKey)
		dst[i] = byte(v)
		dst[i+1] = byte(v >> 8)
		dst[i+2] = byte(v >> 16)
		dst[i+3] = byte(v >> 24)
		dst[i+4] = byte(v >> 32)
		dst[i+5] = byte(v >> 40)
		dst[i+6] = byte(v >> 48)
		dst[i+7] = byte(v >> 56)
	}
	// Tail.
	for ; i < len(dst); i++ {
		dst[i] = synthByte(p.Seed, base+int64(i))
	}
}

// Buffer is an ordered sequence of parts, representing size bytes of
// simulated data. The zero value is an empty buffer.
//
// A buffer that is one synthetic run keeps it inline: parts is nil and the
// run is (seed, off, size). Synth, Slice of such a buffer and Append of a
// first synthetic part therefore allocate nothing, which is what every MPI
// message payload is. Append of a second part spills the run into parts;
// from then on seed and off are zero. Readers see both forms through view.
//
// cum is a cumulative-offset index: cum[i] is the end offset of parts[i].
// Append maintains it incrementally so Slice can binary-search for the first
// overlapped part instead of scanning the part list; buffers built by direct
// construction (FromBytes, Synth) carry no index and fall back to the scan,
// which is free at their one-part size. The index is valid whenever
// len(cum) == len(parts).
type Buffer struct {
	parts []Part
	cum   []int64
	size  int64
	seed  uint64 // inline run's seed; zero once spilled
	off   int64  // inline run's stream offset; zero once spilled
}

// view returns the buffer's parts. The inline run comes back in *one, which
// the caller keeps on its stack, so reading a one-run buffer allocates
// nothing.
func (b *Buffer) view(one *[1]Part) []Part {
	if b.parts != nil || b.size == 0 {
		return b.parts
	}
	one[0] = Part{Seed: b.seed, Off: b.off, N: b.size}
	return one[:]
}

// FromBytes returns a buffer over real bytes. The buffer aliases b.
func FromBytes(b []byte) Buffer {
	if len(b) == 0 {
		return Buffer{}
	}
	return Buffer{parts: []Part{{Bytes: b}}, size: int64(len(b))}
}

// Synth returns a synthetic buffer of n bytes drawn from seed's stream
// starting at offset off.
func Synth(seed uint64, off, n int64) Buffer {
	if n == 0 {
		return Buffer{}
	}
	if n < 0 {
		panic("payload: negative synthetic length")
	}
	return Buffer{seed: seed, off: off, size: n}
}

// Size returns the buffer length in bytes.
func (b Buffer) Size() int64 { return b.size }

// InlineRun reports the synthetic run a buffer holds inline: ok is true when
// the buffer is one non-empty synthetic run (what every MPI message payload
// is), and then its content is Synth(seed, off, b.Size()). A spilled, byte
// or empty buffer reports false.
func (b Buffer) InlineRun() (seed uint64, off int64, ok bool) {
	if b.parts != nil || b.size == 0 {
		return 0, 0, false
	}
	return b.seed, b.off, true
}

// sliceIndexMin is the part count above which Append maintains the
// cumulative-offset index. Below it a Slice scan touches so few parts that
// the index would cost more (one extra allocation per buffer) than it saves.
const sliceIndexMin = 16

// Append adds a part to the buffer. A synthetic first part stays inline; a
// second part spills the inline run into the part list.
func (b *Buffer) Append(p Part) {
	ps := p.Size()
	if ps == 0 {
		return
	}
	if b.size == 0 && p.Bytes == nil {
		*b = Buffer{seed: p.Seed, off: p.Off, size: ps}
		return
	}
	if b.parts == nil && b.size > 0 {
		b.parts = append(make([]Part, 0, 2), Part{Seed: b.seed, Off: b.off, N: b.size})
		b.seed, b.off = 0, 0
	}
	b.parts = append(b.parts, p)
	b.size += ps
	if len(b.parts) > sliceIndexMin {
		if len(b.cum) == len(b.parts)-1 {
			b.cum = append(b.cum, b.size)
		} else {
			b.reindex()
		}
	}
}

// reindex rebuilds the cumulative-offset index from scratch. It allocates a
// fresh slice rather than truncating in place: buffers share part storage
// freely (Slice aliases, struct copies), and writing through a shared cum
// array could corrupt a sibling's index.
func (b *Buffer) reindex() {
	b.cum = make([]int64, 0, len(b.parts)+1)
	var c int64
	for _, p := range b.parts {
		c += p.Size()
		b.cum = append(b.cum, c)
	}
}

// AppendBuffer concatenates o onto b.
func (b *Buffer) AppendBuffer(o Buffer) {
	var one [1]Part
	for _, p := range o.view(&one) {
		b.Append(p)
	}
}

// Slice returns the byte range [off, off+n) as a new buffer sharing the
// underlying parts. It panics if out of range.
func (b Buffer) Slice(off, n int64) Buffer {
	if off < 0 || n < 0 || off+n > b.size {
		panic(fmt.Sprintf("payload: slice [%d,%d) of buffer sized %d", off, off+n, b.size))
	}
	var out Buffer
	if n == 0 {
		return out
	}
	var one [1]Part
	parts := b.view(&one)
	first := 0
	pos := int64(0)
	// Binary-search the cumulative index for the first overlapped part; small
	// or unindexed buffers scan, which is cheaper than the search setup.
	if len(b.cum) == len(parts) && len(parts) > sliceIndexMin {
		first = sort.Search(len(b.cum), func(i int) bool { return b.cum[i] > off })
		if first > 0 {
			pos = b.cum[first-1]
		}
	}
	for _, p := range parts[first:] {
		ps := p.Size()
		if pos+ps <= off {
			pos += ps
			continue
		}
		start := int64(0)
		if off > pos {
			start = off - pos
		}
		take := ps - start
		if remaining := off + n - (pos + start); take > remaining {
			take = remaining
		}
		out.Append(p.Slice(start, take))
		pos += ps
		if pos >= off+n {
			break
		}
	}
	return out
}

// Checksum returns the content hash of the buffer's full byte stream (see
// hash.go). It depends only on the bytes, never on how they are fragmented
// into parts, so a reassembled image hashes equal to the original.
func (b Buffer) Checksum() uint64 {
	s := newHasher()
	var one [1]Part
	for _, p := range b.view(&one) {
		p.feed(&s)
	}
	return s.sum()
}

// Materialize returns the full content as real bytes. For tests and small
// buffers only; anything above the data-plane cap panics (see
// SetMaterializeCap).
func (b Buffer) Materialize() []byte {
	checkMaterialize(b.size)
	out := make([]byte, b.size)
	at := int64(0)
	var one [1]Part
	for _, p := range b.view(&one) {
		p.fill(out[at:at+p.Size()], 0)
		at += p.Size()
	}
	return out
}

// Equal reports whether two buffers have identical content, comparing in
// streaming windows so it is safe at any size.
func (b Buffer) Equal(o Buffer) bool {
	if b.size != o.size {
		return false
	}
	sa, sb := scratchGet(), scratchGet()
	defer scratchPut(sa)
	defer scratchPut(sb)
	for off := int64(0); off < b.size; {
		n := b.size - off
		if n > scratchSize {
			n = scratchSize
		}
		wa := b.Slice(off, n).materializeInto((*sa)[:n])
		wb := o.Slice(off, n).materializeInto((*sb)[:n])
		if !bytes.Equal(wa, wb) {
			return false
		}
		off += n
	}
	return true
}

func (b Buffer) materializeInto(dst []byte) []byte {
	at := int64(0)
	var one [1]Part
	for _, p := range b.view(&one) {
		p.fill(dst[at:at+p.Size()], 0)
		at += p.Size()
	}
	return dst[:at]
}

func (b Buffer) String() string {
	var one [1]Part
	return fmt.Sprintf("payload.Buffer{%d parts, %d bytes}", len(b.view(&one)), b.size)
}
