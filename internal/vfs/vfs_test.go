package vfs

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"ibmig/internal/ib"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// slowDisk: 1 MB/s both directions, 1 ms op overhead — round numbers for
// timing assertions.
var slowDisk = DiskConfig{
	WriteBandwidth: 1 << 20,
	ReadBandwidth:  1 << 20,
	OpOverhead:     time.Millisecond,
	StreamPenalty:  0.5,
}

func TestLocalWriteReadRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	fs := NewFileSystem(e, "n0", NewDisk(e, "d0", slowDisk), FSConfig{})
	want := payload.Synth(9, 0, 300000)
	e.Spawn("main", func(p *sim.Proc) {
		f := fs.Create(p, "ckpt.0")
		f.Append(p, want.Slice(0, 100000))
		f.Append(p, want.Slice(100000, 200000))
		got := f.ReadAt(p, 0, f.Size())
		if !got.Equal(want) {
			t.Error("read-back content mismatch")
		}
		f.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteAtArbitraryOffsets(t *testing.T) {
	e := sim.NewEngine(1)
	fs := NewFileSystem(e, "n0", NewDisk(e, "d0", slowDisk), FSConfig{})
	e.Spawn("main", func(p *sim.Proc) {
		f := fs.Create(p, "x")
		// Chunks arriving out of order, as during migration reassembly.
		c0 := payload.Synth(1, 0, 1000)
		c1 := payload.Synth(2, 0, 1000)
		c2 := payload.Synth(3, 0, 1000)
		f.WriteAt(p, 2000, c2)
		f.WriteAt(p, 0, c0)
		f.WriteAt(p, 1000, c1)
		if f.Size() != 3000 {
			t.Errorf("size = %d, want 3000", f.Size())
		}
		if !f.ReadAt(p, 0, 1000).Equal(c0) || !f.ReadAt(p, 1000, 1000).Equal(c1) || !f.ReadAt(p, 2000, 1000).Equal(c2) {
			t.Error("out-of-order reassembly mismatch")
		}
		f.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCachedWriteIsFastSyncIsDiskBound(t *testing.T) {
	e := sim.NewEngine(1)
	fs := NewFileSystem(e, "n0", NewDisk(e, "d0", slowDisk), FSConfig{})
	const n = 4 << 20
	var writeTook, syncTook sim.Duration
	e.Spawn("main", func(p *sim.Proc) {
		f := fs.Create(p, "f")
		start := p.Now()
		f.Append(p, payload.Synth(1, 0, n))
		writeTook = p.Now().Sub(start)
		start = p.Now()
		f.Sync(p)
		syncTook = p.Now().Sub(start)
		f.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if writeTook > 100*time.Millisecond {
		t.Errorf("cached write of 4MB took %v; should be memory speed", writeTook)
	}
	// 4 MB at 1 MB/s.
	if syncTook < 3900*time.Millisecond || syncTook > 4500*time.Millisecond {
		t.Errorf("sync took %v, want ~4s", syncTook)
	}
	if fs.DirtyBytes() != 0 {
		t.Errorf("dirty after sync = %d", fs.DirtyBytes())
	}
}

func TestColdReadIsDiskBoundWarmReadIsNot(t *testing.T) {
	e := sim.NewEngine(1)
	fs := NewFileSystem(e, "n0", NewDisk(e, "d0", slowDisk), FSConfig{})
	const n = 2 << 20
	var warm, cold sim.Duration
	e.Spawn("main", func(p *sim.Proc) {
		f := fs.Create(p, "f")
		f.Append(p, payload.Synth(1, 0, n))
		f.Sync(p)
		start := p.Now()
		f.ReadAt(p, 0, n)
		warm = p.Now().Sub(start)
		fs.DropCaches()
		start = p.Now()
		f.ReadAt(p, 0, n)
		cold = p.Now().Sub(start)
		f.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if warm > 50*time.Millisecond {
		t.Errorf("warm read took %v", warm)
	}
	if cold < 1900*time.Millisecond {
		t.Errorf("cold read took %v, want ~2s (2MB at 1MB/s)", cold)
	}
}

func TestDirtyLimitThrottlesWriter(t *testing.T) {
	e := sim.NewEngine(1)
	// 4 MB cache, 50% dirty ratio => 2 MB dirty limit.
	fs := NewFileSystem(e, "n0", NewDisk(e, "d0", slowDisk), FSConfig{CacheCapacity: 4 << 20, DirtyRatio: 0.5})
	var took sim.Duration
	e.Spawn("main", func(p *sim.Proc) {
		f := fs.Create(p, "f")
		start := p.Now()
		f.Append(p, payload.Synth(1, 0, 6<<20))
		took = p.Now().Sub(start)
		f.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// 4 MB must be forced out at 1 MB/s while writing.
	if took < 3900*time.Millisecond {
		t.Errorf("write of 6MB with 2MB dirty limit took %v; throttling missing", took)
	}
	if fs.DirtyBytes() > 2<<20 {
		t.Errorf("dirty = %d exceeds limit", fs.DirtyBytes())
	}
}

func TestConcurrentSyncStreamsDegradeDisk(t *testing.T) {
	// Two files synced concurrently with StreamPenalty 0.5 => efficiency
	// 1/1.5; total 4 MB should take ~6 s instead of 4 s.
	e := sim.NewEngine(1)
	fs := NewFileSystem(e, "n0", NewDisk(e, "d0", slowDisk), FSConfig{})
	var doneAt sim.Time
	wg := sim.NewWaitGroup(e)
	wg.Add(2)
	for i := 0; i < 2; i++ {
		i := i
		e.Spawn("writer", func(p *sim.Proc) {
			f := fs.Create(p, []string{"a", "b"}[i])
			f.Append(p, payload.Synth(uint64(i), 0, 2<<20))
			f.Sync(p)
			f.Close()
			if p.Now() > doneAt {
				doneAt = p.Now()
			}
			wg.Done()
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt < sim.Time(5500*time.Millisecond) {
		t.Errorf("concurrent syncs finished at %v; stream contention missing", doneAt)
	}
}

func TestOpenMissingFile(t *testing.T) {
	e := sim.NewEngine(1)
	fs := NewFileSystem(e, "n0", NewDisk(e, "d0", slowDisk), FSConfig{})
	e.Spawn("main", func(p *sim.Proc) {
		if _, err := fs.Open(p, "nope"); err == nil {
			t.Error("expected ErrNotExist")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveReleasesCache(t *testing.T) {
	e := sim.NewEngine(1)
	fs := NewFileSystem(e, "n0", NewDisk(e, "d0", slowDisk), FSConfig{})
	e.Spawn("main", func(p *sim.Proc) {
		f := fs.Create(p, "f")
		f.Append(p, payload.Synth(1, 0, 1<<20))
		f.Close()
		fs.Remove("f")
		if fs.CachedBytes() != 0 || fs.DirtyBytes() != 0 {
			t.Errorf("cache not released: cached=%d dirty=%d", fs.CachedBytes(), fs.DirtyBytes())
		}
		if fs.files["f"] != nil {
			t.Error("file still exists")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: any sequence of WriteAt operations yields the same content as a
// reference byte-slice implementation.
func TestQuickWriteAtMatchesReference(t *testing.T) {
	type op struct {
		Off  uint16
		Len  uint8
		Seed uint64
	}
	f := func(ops []op) bool {
		if len(ops) > 30 {
			ops = ops[:30]
		}
		e := sim.NewEngine(1)
		fs := NewFileSystem(e, "n0", NewDisk(e, "d0", DiskConfig{WriteBandwidth: 1 << 30, ReadBandwidth: 1 << 30, OpOverhead: 1, StreamPenalty: 0.01}), FSConfig{})
		okRes := true
		e.Spawn("main", func(p *sim.Proc) {
			fh := fs.Create(p, "f")
			var ref []byte
			for _, o := range ops {
				off := int64(o.Off) % 4096
				n := int64(o.Len) + 1
				data := payload.Synth(o.Seed, 0, n)
				fh.WriteAt(p, off, data)
				if grow := off + n - int64(len(ref)); grow > 0 {
					// Reference grows with the same deterministic hole filler.
					if off > int64(len(ref)) {
						ref = append(ref, payload.Synth(holeSeed, int64(len(ref)), off-int64(len(ref))).Materialize()...)
					}
					ref = append(ref, make([]byte, off+n-int64(len(ref)))...)
				}
				copy(ref[off:off+n], data.Materialize())
			}
			if fh.Size() != int64(len(ref)) {
				okRes = false
			} else if len(ref) > 0 && !bytes.Equal(fh.ReadAt(p, 0, fh.Size()).Materialize(), ref) {
				okRes = false
			}
			fh.Close()
		})
		return e.Run() == nil && okRes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// ---------------------------------------------------------------------------
// PVFS
// ---------------------------------------------------------------------------

func pvfsSetup(e *sim.Engine, clients int) (*ib.Fabric, *PVFS, []string) {
	fab := ib.NewFabric(e, ib.Config{})
	servers := []string{"io0", "io1", "io2", "io3"}
	for _, s := range servers {
		fab.AttachHCA(s)
	}
	var cl []string
	for i := 0; i < clients; i++ {
		n := "c" + string(rune('0'+i))
		fab.AttachHCA(n)
		cl = append(cl, n)
	}
	pv := NewPVFS(e, fab, servers, 1<<20, slowDisk)
	return fab, pv, cl
}

func TestPVFSWriteReadRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	_, pv, cl := pvfsSetup(e, 1)
	want := payload.Synth(5, 0, 3<<20+12345)
	e.Spawn("main", func(p *sim.Proc) {
		h := pv.Create(p, cl[0], "ckpt")
		h.Append(p, want)
		got := h.ReadAt(p, 0, h.Size())
		if !got.Equal(want) {
			t.Error("PVFS content mismatch")
		}
		h.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pv.BytesWritten != want.Size() || pv.BytesRead != want.Size() {
		t.Errorf("accounting: wrote %d read %d want %d", pv.BytesWritten, pv.BytesRead, want.Size())
	}
}

func TestPVFSStripingSpreadsAcrossServers(t *testing.T) {
	e := sim.NewEngine(1)
	_, pv, cl := pvfsSetup(e, 1)
	e.Spawn("main", func(p *sim.Proc) {
		h := pv.Create(p, cl[0], "f")
		h.Append(p, payload.Synth(1, 0, 8<<20)) // 8 stripes over 4 servers
		h.Close()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, s := range pv.Servers() {
		if s.Disk.BytesWritten != 2<<20 {
			t.Errorf("server %s wrote %d, want 2MB", s.Node, s.Disk.BytesWritten)
		}
	}
}

func TestPVFSConcurrentClientsContend(t *testing.T) {
	// 4 clients writing 4 MB each: all four server disks receive 4 MB and,
	// with 4 registered streams each, run below peak efficiency — total time
	// must exceed the zero-contention ideal.
	e := sim.NewEngine(1)
	_, pv, cl := pvfsSetup(e, 4)
	var last sim.Time
	for i, c := range cl {
		i, c := i, c
		e.Spawn("client"+c, func(p *sim.Proc) {
			h := pv.Create(p, c, "f"+c)
			h.Append(p, payload.Synth(uint64(i), 0, 4<<20))
			h.Close()
			if p.Now() > last {
				last = p.Now()
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Ideal: 16 MB over 4 disks at 1 MB/s = 4 s. With penalty 0.5 and 4
	// streams, efficiency = 0.4 => ~10 s.
	if last < sim.Time(8*time.Second) {
		t.Errorf("contended PVFS writes finished at %v; expected >8s", last)
	}
}

func TestPVFSOpenMissing(t *testing.T) {
	e := sim.NewEngine(1)
	_, pv, cl := pvfsSetup(e, 1)
	e.Spawn("main", func(p *sim.Proc) {
		if _, err := pv.Open(p, cl[0], "missing"); err == nil {
			t.Error("expected error")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: PVFS preserves content for any size and stripe alignment.
func TestQuickPVFSIntegrity(t *testing.T) {
	f := func(seed uint64, sz uint32) bool {
		n := int64(sz)%(4<<20) + 1
		e := sim.NewEngine(1)
		_, pv, cl := pvfsSetup(e, 1)
		want := payload.Synth(seed, 0, n)
		okRes := true
		e.Spawn("main", func(p *sim.Proc) {
			h := pv.Create(p, cl[0], "f")
			h.Append(p, want)
			okRes = h.ReadAt(p, 0, n).Equal(want)
			h.Close()
		})
		return e.Run() == nil && okRes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheEvictionRespectsCapacity(t *testing.T) {
	e := sim.NewEngine(1)
	// 4 MB cache so three 2 MB files cannot all stay resident.
	fs := NewFileSystem(e, "n0", NewDisk(e, "d0", slowDisk), FSConfig{CacheCapacity: 4 << 20, DirtyRatio: 0.9})
	e.Spawn("main", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			f := fs.Create(p, string(rune('a'+i)))
			f.Append(p, payload.Synth(uint64(i), 0, 2<<20))
			f.Sync(p)
			f.Close()
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fs.CachedBytes() > 4<<20 {
		t.Fatalf("cache %d exceeds capacity", fs.CachedBytes())
	}
}

func TestDiskStreamAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	d := NewDisk(e, "d", slowDisk)
	d.StartStream()
	d.StartStream()
	if d.Streams() != 2 {
		t.Fatalf("streams = %d", d.Streams())
	}
	d.EndStream()
	d.EndStream()
	defer func() {
		if recover() == nil {
			t.Fatal("EndStream underflow not caught")
		}
	}()
	d.EndStream()
}
