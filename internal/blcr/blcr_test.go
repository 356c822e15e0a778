package blcr

import (
	"testing"
	"testing/quick"
	"time"

	"ibmig/internal/payload"
	"ibmig/internal/proc"
	"ibmig/internal/sim"
	"ibmig/internal/vfs"
)

func testProcess(t *proc.Table, rank int, segSizes ...int64) *proc.Process {
	var specs []proc.SegmentSpec
	names := []string{"text", "data", "heap", "stack", "anon"}
	for i, sz := range segSizes {
		specs = append(specs, proc.SegmentSpec{
			Name:  names[i%len(names)],
			VAddr: 0x400000 + uint64(i)*0x10000000,
			Size:  sz,
			Seed:  uint64(rank*100 + i),
		})
	}
	return t.Spawn("app", rank, specs)
}

func TestCheckpointRestartRoundTripMemory(t *testing.T) {
	e := sim.NewEngine(1)
	src := proc.NewTable("nodeA")
	dst := proc.NewTable("nodeB")
	pr := testProcess(src, 3, 1<<20, 4<<20, 64<<10)
	wantSum := pr.Checksum()
	wantSize := pr.ImageSize()
	e.Spawn("main", func(p *sim.Proc) {
		sink := &BufferSink{}
		info, err := Checkpoint(p, pr, nil, sink, Options{Hash: true})
		if err != nil {
			t.Error(err)
			return
		}
		if info.Payload != wantSize {
			t.Errorf("payload bytes = %d, want %d", info.Payload, wantSize)
		}
		if info.Bytes != sink.Buf.Size() {
			t.Errorf("stream bytes = %d, info says %d", sink.Buf.Size(), info.Bytes)
		}
		restored, err := Restart(p, &BufferSource{Buf: sink.Buf}, dst, RestartOptions{Verify: true})
		if err != nil {
			t.Error(err)
			return
		}
		if restored.PID != pr.PID || restored.Rank != pr.Rank || restored.Name != pr.Name {
			t.Errorf("identity mismatch: %+v vs %+v", restored, pr)
		}
		if restored.Checksum() != wantSum {
			t.Error("restored image is not bit-identical")
		}
		if restored.Node != "nodeB" {
			t.Errorf("restored on %s", restored.Node)
		}
		if len(restored.Segments) != len(pr.Segments) {
			t.Errorf("segments = %d, want %d", len(restored.Segments), len(pr.Segments))
		}
		for i, s := range restored.Segments {
			o := pr.Segments[i]
			if s.Name != o.Name || s.VAddr != o.VAddr || s.Region.Size() != o.Region.Size() {
				t.Errorf("segment %d layout mismatch", i)
			}
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRoundTripThroughLocalFile(t *testing.T) {
	e := sim.NewEngine(1)
	fs := vfs.NewFileSystem(e, "n", vfs.NewDisk(e, "d", vfs.DiskConfig{}), vfs.FSConfig{})
	srcT := proc.NewTable("n")
	dstT := proc.NewTable("n2")
	pr := testProcess(srcT, 0, 2<<20, 512<<10)
	want := pr.Checksum()
	e.Spawn("main", func(p *sim.Proc) {
		f := fs.Create(p, "context.0")
		if _, err := Checkpoint(p, pr, nil, FileSink{F: f}, Options{Hash: true}); err != nil {
			t.Error(err)
		}
		f.Sync(p)
		f.Close()
		rf, err := fs.Open(p, "context.0")
		if err != nil {
			t.Error(err)
			return
		}
		restored, err := Restart(p, FileSource{F: rf}, dstT, RestartOptions{Verify: true})
		rf.Close()
		if err != nil {
			t.Error(err)
			return
		}
		if restored.Checksum() != want {
			t.Error("file round trip lost content")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartDetectsCorruption(t *testing.T) {
	e := sim.NewEngine(1)
	srcT := proc.NewTable("a")
	dstT := proc.NewTable("b")
	pr := testProcess(srcT, 1, 256<<10)
	e.Spawn("main", func(p *sim.Proc) {
		sink := &BufferSink{}
		if _, err := Checkpoint(p, pr, nil, sink, Options{Hash: true}); err != nil {
			t.Error(err)
			return
		}
		// Corrupt one payload byte (after both headers).
		stream := sink.Buf
		var corrupted payload.Buffer
		corrupted.AppendBuffer(stream.Slice(0, 200))
		corrupted.AppendBuffer(payload.FromBytes([]byte{0xFF}))
		corrupted.AppendBuffer(stream.Slice(201, stream.Size()-201))
		if _, err := Restart(p, &BufferSource{Buf: corrupted}, dstT, RestartOptions{Verify: true}); err == nil {
			t.Error("restart accepted a corrupted stream")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRestartRejectsGarbageAndTruncation(t *testing.T) {
	e := sim.NewEngine(1)
	dstT := proc.NewTable("b")
	srcT := proc.NewTable("a")
	pr := testProcess(srcT, 0, 64<<10)
	e.Spawn("main", func(p *sim.Proc) {
		if _, err := Restart(p, &BufferSource{Buf: payload.Synth(1, 0, 4096)}, dstT, RestartOptions{}); err != ErrBadMagic {
			t.Errorf("garbage stream: err = %v, want ErrBadMagic", err)
		}
		sink := &BufferSink{}
		if _, err := Checkpoint(p, pr, nil, sink, Options{Hash: true}); err != nil {
			t.Error(err)
			return
		}
		truncated := sink.Buf.Slice(0, sink.Buf.Size()/2)
		if _, err := Restart(p, &BufferSource{Buf: truncated}, dstT, RestartOptions{}); err != ErrShortStream {
			t.Errorf("truncated stream: err = %v, want ErrShortStream", err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCallbacksFire(t *testing.T) {
	e := sim.NewEngine(1)
	srcT := proc.NewTable("a")
	dstT := proc.NewTable("b")
	pr := testProcess(srcT, 0, 64<<10)
	var pre, post int
	cb := &Callbacks{
		PreCheckpoint: func(p *sim.Proc) { pre++ },
		Restart:       func(p *sim.Proc, restored *proc.Process) { post++ },
	}
	e.Spawn("main", func(p *sim.Proc) {
		sink := &BufferSink{}
		if _, err := Checkpoint(p, pr, cb, sink, Options{Hash: true}); err != nil {
			t.Error(err)
			return
		}
		if _, err := Restart(p, &BufferSource{Buf: sink.Buf}, dstT, RestartOptions{Callbacks: cb}); err != nil {
			t.Error(err)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if pre != 1 || post != 1 {
		t.Fatalf("pre=%d post=%d, want 1,1", pre, post)
	}
}

func TestAdoptDuplicatePIDFails(t *testing.T) {
	e := sim.NewEngine(1)
	srcT := proc.NewTable("a")
	pr := testProcess(srcT, 0, 4096)
	e.Spawn("main", func(p *sim.Proc) {
		sink := &BufferSink{}
		if _, err := Checkpoint(p, pr, nil, sink, Options{Hash: true}); err != nil {
			t.Error(err)
			return
		}
		// Restarting on the same node where the PID still lives must fail.
		if _, err := Restart(p, &BufferSource{Buf: sink.Buf}, srcT, RestartOptions{}); err == nil {
			t.Error("restart over a live PID succeeded")
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointTimeScalesWithImageSize(t *testing.T) {
	e := sim.NewEngine(1)
	tab := proc.NewTable("a")
	small := testProcess(tab, 0, 1<<20)
	big := testProcess(tab, 1, 32<<20)
	var tSmall, tBig sim.Duration
	e.Spawn("main", func(p *sim.Proc) {
		start := p.Now()
		if _, err := Checkpoint(p, small, nil, &BufferSink{}, Options{}); err != nil {
			t.Error(err)
		}
		tSmall = p.Now().Sub(start)
		start = p.Now()
		if _, err := Checkpoint(p, big, nil, &BufferSink{}, Options{}); err != nil {
			t.Error(err)
		}
		tBig = p.Now().Sub(start)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if tBig < 2*tSmall {
		t.Fatalf("32MB ckpt (%v) not appreciably slower than 1MB (%v)", tBig, tSmall)
	}
	if tSmall < 5*time.Millisecond {
		t.Fatalf("checkpoint faster than freeze cost: %v", tSmall)
	}
}

// Property: round trip preserves image identity for arbitrary segment
// layouts.
func TestQuickRoundTripIdentity(t *testing.T) {
	f := func(rank uint8, sizes []uint16) bool {
		if len(sizes) == 0 {
			sizes = []uint16{1}
		}
		if len(sizes) > 6 {
			sizes = sizes[:6]
		}
		e := sim.NewEngine(1)
		srcT := proc.NewTable("a")
		dstT := proc.NewTable("b")
		var segs []int64
		for _, s := range sizes {
			segs = append(segs, int64(s)+1)
		}
		pr := testProcess(srcT, int(rank), segs...)
		want := pr.Checksum()
		okRes := false
		e.Spawn("main", func(p *sim.Proc) {
			sink := &BufferSink{}
			if _, err := Checkpoint(p, pr, nil, sink, Options{Hash: true}); err != nil {
				return
			}
			restored, err := Restart(p, &BufferSource{Buf: sink.Buf}, dstT, RestartOptions{Verify: true})
			if err != nil {
				return
			}
			okRes = restored.Checksum() == want && restored.ImageSize() == pr.ImageSize()
		})
		return e.Run() == nil && okRes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
