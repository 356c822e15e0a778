// Package blcr reimplements the behaviour of Berkeley Lab Checkpoint/Restart
// that the paper depends on: dumping a process's address space to a
// vmadump-style stream and rebuilding an identical process from such a
// stream, with pre-checkpoint/continue/restart callbacks for library
// cooperation (MVAPICH2 registers its C/R thread logic through these).
//
// The paper's key extension — redirecting checkpoint writes of multiple
// processes into a user-level aggregation buffer pool instead of files — is
// supported through the Sink interface: the migration framework supplies a
// buffer-pool sink, the Checkpoint/Restart baseline supplies file sinks.
//
// Stream format (byte-accurate; headers are real bytes, page data may be
// symbolic):
//
//	file header   64 B  magic, pid, rank, #segments, image bytes
//	per segment:
//	  seg header  64 B  name, vaddr, length, content checksum
//	  page data   length bytes
package blcr

import (
	"encoding/binary"
	"errors"
	"fmt"

	"ibmig/internal/calib"
	"ibmig/internal/mem"
	"ibmig/internal/payload"
	"ibmig/internal/proc"
	"ibmig/internal/sim"
)

const (
	headerSize = 64
	magic      = 0x424c435253494d31 // "BLCRSIM1"
)

// Errors.
var (
	ErrBadMagic    = errors.New("blcr: bad stream magic")
	ErrCorrupt     = errors.New("blcr: segment checksum mismatch")
	ErrShortStream = errors.New("blcr: truncated stream")
)

// Sink receives the checkpoint stream. Write is called in checkpoint order;
// implementations charge their own medium costs (file cache, buffer pool,
// network). A Write error aborts the checkpoint.
type Sink interface {
	Write(p *sim.Proc, b payload.Buffer) error
}

// Source provides a checkpoint stream for restart.
type Source interface {
	ReadAt(p *sim.Proc, off, n int64) payload.Buffer
	Size() int64
}

// BufferSink collects the stream in memory with no timing cost (tests, and
// the memory-based restart path).
type BufferSink struct {
	Buf payload.Buffer
}

// Write implements Sink.
func (s *BufferSink) Write(_ *sim.Proc, b payload.Buffer) error {
	s.Buf.AppendBuffer(b)
	return nil
}

// BufferSource serves a stream from memory with no timing cost.
type BufferSource struct {
	Buf payload.Buffer
}

// ReadAt implements Source.
func (s *BufferSource) ReadAt(_ *sim.Proc, off, n int64) payload.Buffer { return s.Buf.Slice(off, n) }

// Size implements Source.
func (s *BufferSource) Size() int64 { return s.Buf.Size() }

// Callbacks are the cr_register_callback hooks a library can attach to a
// process.
type Callbacks struct {
	// PreCheckpoint runs after the process is frozen, before the dump.
	PreCheckpoint func(p *sim.Proc)
	// Continue runs on the original process after a successful checkpoint.
	Continue func(p *sim.Proc)
	// Restart runs on the rebuilt process after a successful restart.
	Restart func(p *sim.Proc, restored *proc.Process)
}

// ImageInfo summarizes a produced checkpoint.
type ImageInfo struct {
	PID      int
	Rank     int
	Bytes    int64 // total stream size including headers
	Payload  int64 // memory bytes only
	Checksum uint64
}

// fileHeader <-> bytes.
func encodeFileHeader(pr *proc.Process, imageBytes int64) []byte {
	h := make([]byte, headerSize)
	binary.LittleEndian.PutUint64(h[0:], magic)
	binary.LittleEndian.PutUint64(h[8:], uint64(pr.PID))
	binary.LittleEndian.PutUint64(h[16:], uint64(int64(pr.Rank)))
	binary.LittleEndian.PutUint64(h[24:], uint64(len(pr.Segments)))
	binary.LittleEndian.PutUint64(h[32:], uint64(imageBytes))
	copy(h[40:], pr.Name)
	return h
}

func encodeSegHeader(s *proc.Segment, sum uint64) []byte {
	h := make([]byte, headerSize)
	copy(h[0:24], s.Name)
	binary.LittleEndian.PutUint64(h[24:], s.VAddr)
	binary.LittleEndian.PutUint64(h[32:], uint64(s.Region.Size()))
	binary.LittleEndian.PutUint64(h[40:], sum)
	return h
}

// Options tune Checkpoint.
type Options struct {
	// Hash computes per-segment content checksums and embeds them in the
	// stream so Restart can verify bit-identity. Correctness tests keep this
	// on; pure timing runs at multi-GB scale may disable it (a zero checksum
	// in the stream disables verification for that segment).
	Hash bool
}

// Checkpoint freezes pr, runs its pre-checkpoint callback, and streams its
// image into sink. The calling process pays the freeze, per-page scan and
// memory-copy costs; the sink charges its own costs in Write. The process is
// left frozen; call the Continue callback (or just resume the owner) after.
func Checkpoint(p *sim.Proc, pr *proc.Process, cb *Callbacks, sink Sink, opts Options) (*ImageInfo, error) {
	p.Sleep(calib.CkptFreezePerProc)
	if cb != nil && cb.PreCheckpoint != nil {
		cb.PreCheckpoint(p)
	}
	payloadBytes := pr.ImageSize()
	total := int64(headerSize) + int64(len(pr.Segments))*headerSize + payloadBytes
	info := &ImageInfo{PID: pr.PID, Rank: pr.Rank, Bytes: total, Payload: payloadBytes}
	if err := sink.Write(p, payload.FromBytes(encodeFileHeader(pr, total))); err != nil {
		return nil, err
	}
	for _, s := range pr.Segments {
		data := s.Region.Content()
		var sum uint64
		if opts.Hash {
			sum = data.Checksum()
			info.Checksum = info.Checksum*1099511628211 + sum
		}
		if err := sink.Write(p, payload.FromBytes(encodeSegHeader(s, sum))); err != nil {
			return nil, err
		}
		// Dump cost: page-table walk plus copying the bytes out of the
		// address space.
		pages := (data.Size() + calib.PageSize - 1) / calib.PageSize
		p.Sleep(sim.Duration(pages) * calib.CkptPerPage)
		p.Sleep(sim.Duration(float64(data.Size()) / float64(calib.MemcpyBandwidth) * 1e9))
		if err := sink.Write(p, data); err != nil {
			return nil, err
		}
	}
	p.Trace("blcr.checkpoint", fmt.Sprintf("pid=%d rank=%d bytes=%d", pr.PID, pr.Rank, info.Bytes))
	return info, nil
}

// RestartOptions tune Restart.
type RestartOptions struct {
	// Verify controls per-segment content checksum verification (the default
	// true mirrors our "image identity" invariant; disable only in
	// throughput micro-benchmarks).
	Verify bool
	// Callbacks to run on the restored process.
	Callbacks *Callbacks
}

// Restart rebuilds a process from a checkpoint stream, verifying integrity,
// and adopts it into the node's process table. The calling process pays the
// per-process rebuild cost, per-page restore cost and the source's read
// costs.
func Restart(p *sim.Proc, src Source, table *proc.Table, opts RestartOptions) (*proc.Process, error) {
	if src.Size() < headerSize {
		return nil, ErrShortStream
	}
	p.Sleep(calib.RestartPerProcBase)
	fh := src.ReadAt(p, 0, headerSize).Materialize()
	if binary.LittleEndian.Uint64(fh[0:]) != magic {
		return nil, ErrBadMagic
	}
	pid := int(binary.LittleEndian.Uint64(fh[8:]))
	rank := int(int64(binary.LittleEndian.Uint64(fh[16:])))
	nseg := int(binary.LittleEndian.Uint64(fh[24:]))
	want := int64(binary.LittleEndian.Uint64(fh[32:]))
	if want > src.Size() {
		return nil, ErrShortStream
	}
	name := trimZero(fh[40:])
	pr := &proc.Process{PID: pid, Name: name, Rank: rank, Node: table.Node}
	off := int64(headerSize)
	for i := 0; i < nseg; i++ {
		if off+headerSize > src.Size() {
			return nil, ErrShortStream
		}
		sh := src.ReadAt(p, off, headerSize).Materialize()
		off += headerSize
		segName := trimZero(sh[0:24])
		vaddr := binary.LittleEndian.Uint64(sh[24:])
		length := int64(binary.LittleEndian.Uint64(sh[32:]))
		sum := binary.LittleEndian.Uint64(sh[40:])
		if off+length > src.Size() {
			return nil, ErrShortStream
		}
		data := src.ReadAt(p, off, length)
		off += length
		if opts.Verify && sum != 0 && data.Checksum() != sum {
			return nil, fmt.Errorf("%w: segment %q of pid %d", ErrCorrupt, segName, pid)
		}
		pages := (length + calib.PageSize - 1) / calib.PageSize
		p.Sleep(sim.Duration(pages) * calib.RestartPerPage)
		p.Sleep(sim.Duration(float64(length) / float64(calib.MemcpyBandwidth) * 1e9))
		pr.Segments = append(pr.Segments, &proc.Segment{
			Name:   segName,
			VAddr:  vaddr,
			Region: mem.NewRegionWith(data),
		})
	}
	if err := table.Adopt(pr); err != nil {
		return nil, err
	}
	if opts.Callbacks != nil && opts.Callbacks.Restart != nil {
		opts.Callbacks.Restart(p, pr)
	}
	p.Trace("blcr.restart", fmt.Sprintf("pid=%d rank=%d bytes=%d", pid, rank, want))
	return pr, nil
}

func trimZero(b []byte) string {
	for i, c := range b {
		if c == 0 {
			return string(b[:i])
		}
	}
	return string(b)
}

// FileSink adapts a local file to the Sink interface (append-only, as BLCR's
// write path is).
type FileSink struct {
	F interface {
		Append(p *sim.Proc, b payload.Buffer) error
	}
}

// Write implements Sink.
func (s FileSink) Write(p *sim.Proc, b payload.Buffer) error { return s.F.Append(p, b) }

// FileSource adapts anything with ReadAt/Size (local files, PVFS handles) to
// the Source interface.
type FileSource struct {
	F interface {
		ReadAt(p *sim.Proc, off, n int64) payload.Buffer
		Size() int64
	}
}

// ReadAt implements Source.
func (s FileSource) ReadAt(p *sim.Proc, off, n int64) payload.Buffer { return s.F.ReadAt(p, off, n) }

// Size implements Source.
func (s FileSource) Size() int64 { return s.F.Size() }
