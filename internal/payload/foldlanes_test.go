package payload

import "testing"

// foldOneLane is the reference foldLanes unrolls: one lane per round, its
// key recomputed as lane*laneKey.
func foldOneLane(p Part, h uint64) uint64 {
	lane := uint64(p.Off >> 3)
	for rem := p.N >> 3; rem > 0; rem-- {
		h = (h ^ mix64(p.Seed^lane*laneKey)) * fnvPrime
		lane++
	}
	return h
}

// checkFoldLanes runs foldLanes on one generated part and compares the
// hash state with the one-lane loop's.
func checkFoldLanes(t *testing.T, seed uint64, off, n int64, hIn uint64) {
	t.Helper()
	p := Part{Seed: seed, Off: off, N: n}
	s := hasher{h: hIn, n: 5}
	p.foldLanes(&s)
	if want := foldOneLane(p, hIn); s.h != want {
		t.Fatalf("foldLanes(seed=%#x off=%d n=%d hIn=%#x) = %#x, the one-lane loop gives %#x", seed, off, n, hIn, s.h, want)
	}
	if want := 5 + uint64(n&^7); s.n != want {
		t.Fatalf("foldLanes(n=%d) counted %d bytes, want %d", n, s.n-5, want-5)
	}
}

// TestFoldLanesMatchesOneLane checks the unrolled lane fold against the
// one-lane loop: every lane count around the 4-lane rounds, partial lanes,
// offsets whose lane keys wrap, and the 4 KB that npb's fold samples.
func TestFoldLanesMatchesOneLane(t *testing.T) {
	offs := []int64{0, 8, 24, 4096, 1 << 40, 1<<62 - 8}
	for _, off := range offs {
		for n := int64(0); n <= 80; n++ {
			checkFoldLanes(t, 0x1234_5678_9abc_def0^uint64(n), off, n, fnvOffset)
		}
		checkFoldLanes(t, 42, off, 4096, 0xdead_beef)
		checkFoldLanes(t, ^uint64(0), off, 4096+7, 0)
	}
	// The checksum of a real buffer goes through foldLanes too.
	b := Synth(99, 64, 4096)
	s := newHasher()
	s.h = foldOneLane(Part{Seed: 99, Off: 64, N: 4096}, s.h)
	s.n = 4096
	if got, want := b.Checksum(), s.sum(); got != want {
		t.Fatalf("Checksum of a 4 KB synthetic run = %#x, the one-lane loop gives %#x", got, want)
	}
}

// FuzzFoldLanes runs foldLanes against the one-lane loop on generated
// (seed, off, n, hIn).
func FuzzFoldLanes(f *testing.F) {
	f.Add(uint64(1), int64(0), uint16(4096), uint64(fnvOffset))
	f.Add(uint64(0), int64(1<<40), uint16(31), uint64(0))
	f.Add(^uint64(0), int64(-8), uint16(7), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed uint64, off int64, n uint16, hIn uint64) {
		if off < 0 {
			off = -off
		}
		if off < 0 { // math.MinInt64
			off = 0
		}
		checkFoldLanes(t, seed, off, int64(n), hIn)
	})
}

// BenchmarkFoldLanes4K folds the 4 KB a received LU face contributes to
// npb's verification sum.
func BenchmarkFoldLanes4K(b *testing.B) {
	p := Part{Seed: 7, Off: 0, N: 4096}
	s := newHasher()
	b.SetBytes(p.N)
	for i := 0; i < b.N; i++ {
		p.foldLanes(&s)
	}
}
