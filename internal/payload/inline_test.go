package payload

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"
)

// spill returns b with an inline run moved into the part list: the form
// Append gives a buffer once it holds a second part, and the only form the
// buffer had before runs were kept inline.
func spill(b Buffer) Buffer {
	if b.parts == nil && b.size > 0 {
		b.parts = []Part{{Seed: b.seed, Off: b.off, N: b.size}}
		b.seed, b.off = 0, 0
	}
	return b
}

// program hands out the bytes of an operation program, then zeros.
type program struct {
	data []byte
	i    int
}

func (p *program) next() int64 {
	if p.i >= len(p.data) {
		return 0
	}
	p.i++
	return int64(p.data[p.i-1])
}

// maxTwinSize bounds a generated buffer, so every check can materialize it.
const maxTwinSize = 8 << 10

// synthBytes is the content of a synthetic part, for the reference model.
func synthBytes(p Part) []byte { return Synth(p.Seed, p.Off, p.N).Materialize() }

// runInlineEquivalence interprets data as a program of buffer and tree
// operations. Each runs on a buffer left in its natural form (inline while
// it is one synthetic run), on a twin forced into the part list after every
// operation, and on a plain byte slice; every result must agree across the
// three.
func runInlineEquivalence(t *testing.T, data []byte) {
	t.Helper()
	pr := &program{data: data}
	var in, sp Buffer
	var ref []byte
	var tin, tsp Tree
	var tref []byte
	defer tin.Release()
	defer tsp.Release()
	part := func() Part {
		return Part{Seed: uint64(pr.next() % 3), Off: pr.next() * 8, N: pr.next()%200 + 1}
	}
	for step := 0; pr.i < len(data); step++ {
		size := int64(len(ref))
		switch op := pr.next() % 8; op {
		case 0: // a fresh synthetic buffer
			p := part()
			b := Synth(p.Seed, p.Off, p.N)
			in, sp, ref = b, spill(b), synthBytes(p)
		case 1: // append a synthetic part; it may continue the run
			if p := part(); size+p.N <= maxTwinSize {
				in.Append(p)
				sp.Append(p)
				ref = append(ref, synthBytes(p)...)
			}
		case 2: // append real bytes
			x := make([]byte, pr.next()%40+1)
			for i := range x {
				x[i] = byte(int64(i)*31 + size)
			}
			in.AppendBuffer(FromBytes(x))
			sp.AppendBuffer(FromBytes(x))
			ref = append(ref, x...)
		case 3: // append a one-run buffer, inline on one side, spilled on the other
			if p := part(); size+p.N <= maxTwinSize {
				o := Synth(p.Seed, p.Off, p.N)
				in.AppendBuffer(o)
				sp.AppendBuffer(spill(o))
				ref = append(ref, synthBytes(p)...)
			}
		case 4: // append the buffer to itself
			if 2*size <= maxTwinSize {
				in.AppendBuffer(in)
				sp.AppendBuffer(sp)
				ref = append(ref, ref...)
			}
		case 5: // slice
			off := pr.next() * pr.next() % (size + 1)
			n := pr.next() * pr.next() % (size - off + 1)
			in, sp = in.Slice(off, n), spill(sp.Slice(off, n))
			ref = append([]byte(nil), ref[off:off+n]...)
		case 6: // splice into the trees
			ts := int64(len(tref))
			if ts+size > 4*maxTwinSize {
				in, sp, ref = Buffer{}, Buffer{}, nil
			}
			off := pr.next() * 37 % (ts + 1)
			del := pr.next() * 29 % (ts - off + 1)
			tin.Splice(off, del, in)
			tsp.Splice(off, del, sp)
			tref = refSplice(tref, off, del, FromBytes(ref))
			checkTrees(t, step, &tin, &tsp, tref, pr.next())
		case 7: // empty
			in, sp, ref = Buffer{}, Buffer{}, nil
		}
		checkTwins(t, step, in, sp, ref, pr.next())
	}
}

// checkTwins compares an inline-form buffer, its spilled twin and the
// reference bytes; pick chooses the slice checked.
func checkTwins(t *testing.T, step int, in, sp Buffer, ref []byte, pick int64) {
	t.Helper()
	size := int64(len(ref))
	if in.parts == nil && in.size > 0 {
		if in.cum != nil {
			t.Fatalf("step %d: inline run carries an index", step)
		}
	} else if in.seed != 0 || in.off != 0 {
		t.Fatalf("step %d: %v keeps run fields beside its parts", step, in)
	}
	if in.Size() != size || sp.Size() != size {
		t.Fatalf("step %d: sizes %d, %d, want %d", step, in.Size(), sp.Size(), size)
	}
	want := FromBytes(ref).Checksum()
	if in.Checksum() != want || sp.Checksum() != want {
		t.Fatalf("step %d: checksums %#x, %#x, want %#x", step, in.Checksum(), sp.Checksum(), want)
	}
	if !bytes.Equal(in.Materialize(), ref) || !bytes.Equal(sp.Materialize(), ref) {
		t.Fatalf("step %d: materialized content diverges", step)
	}
	if !in.Equal(sp) || !sp.Equal(in) || !in.Equal(FromBytes(ref)) {
		t.Fatalf("step %d: Equal disagrees", step)
	}
	if in.String() != sp.String() {
		t.Fatalf("step %d: %v vs %v", step, in, sp)
	}
	if size == 0 {
		return
	}
	off := pick * 13 % size
	n := pick * 7 % (size - off + 1)
	a, b := in.Slice(off, n), sp.Slice(off, n)
	if a.Checksum() != b.Checksum() || !bytes.Equal(a.Materialize(), ref[off:off+n]) ||
		!bytes.Equal(b.Materialize(), ref[off:off+n]) || a.String() != b.String() {
		t.Fatalf("step %d: slice [%d,%d) diverges", step, off, off+n)
	}
}

// checkTrees compares two trees spliced with twin buffers against the
// reference bytes, whole and in one slice chosen by pick.
func checkTrees(t *testing.T, step int, tin, tsp *Tree, ref []byte, pick int64) {
	t.Helper()
	size := int64(len(ref))
	if tin.Size() != size || tsp.Size() != size || tin.Extents() != tsp.Extents() {
		t.Fatalf("step %d: trees hold %d/%d bytes in %d/%d extents, want %d bytes",
			step, tin.Size(), tsp.Size(), tin.Extents(), tsp.Extents(), size)
	}
	want := FromBytes(ref).Checksum()
	if tin.Checksum() != want || tsp.Checksum() != want {
		t.Fatalf("step %d: tree checksums %#x, %#x, want %#x", step, tin.Checksum(), tsp.Checksum(), want)
	}
	if size == 0 {
		return
	}
	off := pick * 101 % size
	n := pick * 53 % (size - off + 1)
	a, b := tin.Slice(off, n), tsp.Slice(off, n)
	if !bytes.Equal(a.Materialize(), ref[off:off+n]) || !bytes.Equal(b.Materialize(), ref[off:off+n]) ||
		a.String() != b.String() {
		t.Fatalf("step %d: tree slice [%d,%d) diverges", step, off, off+n)
	}
}

// TestBufferInlineEquivalence runs generated operation programs through
// runInlineEquivalence: keeping a one-run buffer inline must be invisible
// to every reader of the buffer and of a tree spliced from it.
func TestBufferInlineEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+rng.Intn(400))
		rng.Read(data)
		runInlineEquivalence(t, data)
	}
}

func FuzzBufferInlineEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 1, 1, 2, 3, 4})
	f.Add([]byte{0, 0, 0, 9, 1, 0, 9, 5, 5, 3, 7, 6, 1, 2})
	f.Add(bytes.Repeat([]byte{1, 0, 0, 16}, 24))
	f.Add([]byte{3, 2, 8, 100, 6, 4, 4, 5, 2, 3, 11, 6, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4096 {
			return
		}
		runInlineEquivalence(t, data)
	})
}

// TestInlineRunAllocs guards the allocation-free one-run path: Synth, Slice
// and Checksum of a one-run buffer, and Append of a first synthetic part,
// allocate nothing. A second part spills the run with one allocation.
func TestInlineRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var sink uint64
	if a := testing.AllocsPerRun(100, func() {
		b := Synth(9, 8, 64<<10)
		sink ^= b.Slice(0, 4096).Checksum()
		sink ^= b.Slice(1000, 3).Checksum()
	}); a != 0 {
		t.Errorf("Synth+Slice+Checksum of a one-run buffer allocates %.1f objects, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		var b Buffer
		b.Append(Part{Seed: 3, Off: 16, N: 100})
		sink ^= b.Checksum()
	}); a != 0 {
		t.Errorf("Append of a first synthetic part allocates %.1f objects, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		b := Synth(3, 0, 100)
		b.Append(Part{Seed: 4, N: 100})
		sink ^= uint64(b.Size())
	}); a != 1 {
		t.Errorf("spilling a run allocates %.1f objects, want 1", a)
	}
	_ = sink
}

// TestBufferSize pins the size of a Buffer, which every MPI queue copies.
func TestBufferSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("pinned for 64-bit platforms")
	}
	if s := unsafe.Sizeof(Buffer{}); s != 72 {
		t.Fatalf("unsafe.Sizeof(Buffer{}) = %d bytes, want 72", s)
	}
}

// TestInlineRun covers the inline-run accessor: true exactly for a buffer
// held as one synthetic run, with coordinates that rebuild its content.
func TestInlineRun(t *testing.T) {
	var two Buffer
	two.Append(Part{Seed: 4, Off: 0, N: 16})
	two.Append(Part{Seed: 5, Off: 8, N: 16})
	for _, c := range []struct {
		name string
		b    Buffer
		ok   bool
	}{
		{"synth", Synth(9, 24, 100), true},
		{"misaligned slice", Synth(9, 24, 100).Slice(3, 50), true},
		{"empty", Buffer{}, false},
		{"bytes", FromBytes([]byte("abc")), false},
		{"spilled", two, false},
		{"spilled one run", spill(Synth(9, 0, 10)), false},
	} {
		seed, off, ok := c.b.InlineRun()
		if ok != c.ok {
			t.Errorf("%s: ok = %v, want %v", c.name, ok, c.ok)
			continue
		}
		if ok && !Synth(seed, off, c.b.Size()).Equal(c.b) {
			t.Errorf("%s: Synth(%d, %d, %d) does not rebuild the buffer", c.name, seed, off, c.b.Size())
		}
	}
}
