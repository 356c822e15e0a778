package mem

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"ibmig/internal/payload"
)

func TestRegionInitialContentDeterministic(t *testing.T) {
	a := NewRegion(4096, 5)
	b := NewRegion(4096, 5)
	c := NewRegion(4096, 6)
	if a.Checksum() != b.Checksum() {
		t.Fatal("same seed produced different initial content")
	}
	if a.Checksum() == c.Checksum() {
		t.Fatal("different seeds produced identical content")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	r := NewRegion(1<<16, 1)
	data := payload.Synth(9, 0, 1000)
	r.Write(500, data)
	if !r.Read(500, 1000).Equal(data) {
		t.Fatal("read-back mismatch")
	}
	// Adjacent content untouched.
	fresh := NewRegion(1<<16, 1)
	if !r.Read(0, 500).Equal(fresh.Read(0, 500)) {
		t.Fatal("write disturbed preceding bytes")
	}
	if !r.Read(1500, 1000).Equal(fresh.Read(1500, 1000)) {
		t.Fatal("write disturbed following bytes")
	}
}

func TestOutOfRangePanics(t *testing.T) {
	r := NewRegion(100, 1)
	for _, fn := range []func(){
		func() { r.Write(95, payload.Synth(1, 0, 10)) },
		func() { r.Read(95, 10) },
		func() { r.Write(-1, payload.Synth(1, 0, 1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestNewRegionWith(t *testing.T) {
	content := payload.Synth(3, 7, 5000)
	r := NewRegionWith(content)
	if r.Size() != 5000 || !r.Content().Equal(content) {
		t.Fatal("NewRegionWith mismatch")
	}
}

// TestRegionRandomizedMatchesReference drives a region and a plain byte
// slice through a long randomized write/read/slice sequence — longer arms
// than the quick-check property below, including real-byte writes and
// interior reads after every step.
func TestRegionRandomizedMatchesReference(t *testing.T) {
	const size = 1 << 16
	rng := rand.New(rand.NewSource(21))
	r := NewRegion(size, 42)
	ref := r.Content().Materialize()
	for step := 0; step < 500; step++ {
		off := rng.Int63n(size)
		n := rng.Int63n(size-off) + 1
		var data payload.Buffer
		if rng.Intn(2) == 0 {
			data = payload.Synth(uint64(rng.Intn(6))+1, rng.Int63n(1<<20), n)
		} else {
			data = payload.FromBytes(payload.Synth(uint64(step)+50, 0, n).Materialize())
		}
		r.Write(off, data)
		copy(ref[off:off+n], data.Materialize())

		ro := rng.Int63n(size)
		rn := rng.Int63n(size - ro + 1)
		if got := r.Read(ro, rn).Materialize(); !bytes.Equal(got, ref[ro:ro+rn]) {
			t.Fatalf("step %d: read(%d,%d) diverged", step, ro, rn)
		}
	}
	if !bytes.Equal(r.Content().Materialize(), ref) {
		t.Fatal("final content diverged")
	}
	if r.Checksum() != payload.FromBytes(ref).Checksum() {
		t.Fatal("final checksum diverged")
	}
}

// TestRegionExtentsBoundedUnderChurn models an aggregation buffer pool at
// steady state: chunk-aligned overwrites arriving forever. The extent count
// must stay bounded by the chunk layout, not grow with write count — the
// invariant that keeps pool regions O(chunks) descriptors for the lifetime
// of a migration.
func TestRegionExtentsBoundedUnderChurn(t *testing.T) {
	const size, chunk = 10 << 20, 1 << 20 // the paper's 10 MB pool, 1 MB chunks
	r := NewRegion(size, 1)
	rng := rand.New(rand.NewSource(9))
	bound := int(size/chunk) + 2
	for round := 0; round < 200; round++ {
		c := rng.Int63n(size / chunk)
		r.Write(c*chunk, payload.Synth(uint64(rng.Intn(16))+2, rng.Int63n(1<<30), chunk))
		if got := r.Extents(); got > bound {
			t.Fatalf("round %d: %d extents > bound %d", round, got, bound)
		}
	}
	// Full overwrite collapses back to one extent regardless of history.
	r.Write(0, payload.Synth(99, 0, size))
	if got := r.Extents(); got != 1 {
		t.Fatalf("full overwrite left %d extents, want 1", got)
	}
}

// BenchmarkRegionWriteChurn measures the steady-state overwrite path: ns/op
// and allocs/op must stay flat however long the churn runs (descriptor
// splicing, no content rebuild).
func BenchmarkRegionWriteChurn(b *testing.B) {
	const size, chunk = 64 << 20, 1 << 16
	r := NewRegion(size, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%(size/chunk)) * chunk
		r.Write(off, payload.Synth(uint64(i)+2, off, chunk))
	}
}

// Property: a region behaves like a reference byte slice under any sequence
// of writes.
func TestQuickRegionMatchesReference(t *testing.T) {
	f := func(ops []struct {
		Off  uint16
		N    uint8
		Seed uint64
	}) bool {
		const size = 8192
		if len(ops) > 25 {
			ops = ops[:25]
		}
		r := NewRegion(size, 42)
		ref := r.Content().Materialize()
		for _, op := range ops {
			off := int64(op.Off) % size
			n := int64(op.N)%(size-off) + 1
			if off+n > size {
				n = size - off
			}
			data := payload.Synth(op.Seed, 0, n)
			r.Write(off, data)
			copy(ref[off:off+n], data.Materialize())
		}
		return bytes.Equal(r.Content().Materialize(), ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
