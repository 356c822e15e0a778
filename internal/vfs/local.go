package vfs

import (
	"errors"
	"fmt"
	"strconv"

	"ibmig/internal/calib"
	"ibmig/internal/obs"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// ErrNotExist is returned when opening a missing file.
var ErrNotExist = errors.New("vfs: file does not exist")

// FileSystem is an ext3-like node-local file system: writes land in the page
// cache at memory speed until the dirty limit, dirty data reaches the disk on
// Sync (or under dirty-limit pressure), and reads are served from cache when
// the data is resident, from the device otherwise.
type FileSystem struct {
	E    *sim.Engine
	node string
	disk *Disk

	cacheCap   int64
	dirtyLimit int64
	cached     int64 // clean + dirty resident bytes
	dirty      int64

	files map[string]*File
	order []*File // insertion order, for deterministic eviction/flush
}

// FSConfig overrides cache parameters; zero values use calibrated defaults.
type FSConfig struct {
	CacheCapacity int64
	DirtyRatio    float64
}

// NewFileSystem mounts a file system for node over disk.
func NewFileSystem(e *sim.Engine, node string, disk *Disk, cfg FSConfig) *FileSystem {
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = calib.PageCachePerNode
	}
	if cfg.DirtyRatio == 0 {
		cfg.DirtyRatio = calib.DirtyRatio
	}
	return &FileSystem{
		E:          e,
		node:       node,
		disk:       disk,
		cacheCap:   cfg.CacheCapacity,
		dirtyLimit: int64(float64(cfg.CacheCapacity) * cfg.DirtyRatio),
		files:      make(map[string]*File),
	}
}

// Node returns the owning node name.
func (fs *FileSystem) Node() string { return fs.node }

// Disk returns the backing device.
func (fs *FileSystem) Disk() *Disk { return fs.disk }

// DirtyBytes returns the amount of dirty page cache.
func (fs *FileSystem) DirtyBytes() int64 { return fs.dirty }

// CachedBytes returns total resident page cache.
func (fs *FileSystem) CachedBytes() int64 { return fs.cached }

// File is one local file.
type File struct {
	fs      *FileSystem
	name    string
	c       content
	cachedB int64 // resident bytes (whole-file-prorated model)
	dirtyB  int64 // resident-and-dirty bytes
	opens   int
	removed bool
}

// Create creates (or truncates) a file and returns an open handle. Open
// handles register an I/O stream on the device, degrading concurrent
// efficiency as on a real disk.
func (fs *FileSystem) Create(p *sim.Proc, name string) *File {
	f := fs.files[name]
	if f == nil {
		f = &File{fs: fs, name: name}
		fs.files[name] = f
		fs.order = append(fs.order, f)
	} else {
		fs.uncache(f)
		f.c.release()
	}
	fs.disk.Op(p)
	f.opens++
	fs.disk.StartStream()
	return f
}

// Open opens an existing file.
func (fs *FileSystem) Open(p *sim.Proc, name string) (*File, error) {
	f := fs.files[name]
	if f == nil {
		return nil, fmt.Errorf("%w: %s:%s", ErrNotExist, fs.node, name)
	}
	fs.disk.Op(p)
	f.opens++
	fs.disk.StartStream()
	return f, nil
}

// Remove deletes a file and discards its cache.
func (fs *FileSystem) Remove(name string) {
	f := fs.files[name]
	if f == nil {
		return
	}
	fs.uncache(f)
	f.c.release()
	f.removed = true
	delete(fs.files, name)
	for i, of := range fs.order {
		if of == f {
			fs.order = append(fs.order[:i], fs.order[i+1:]...)
			break
		}
	}
}

func (fs *FileSystem) uncache(f *File) {
	fs.cached -= f.cachedB
	fs.dirty -= f.dirtyB
	f.cachedB, f.dirtyB = 0, 0
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// Size returns the current file size.
func (f *File) Size() int64 { return f.c.size }

// memcpyTime is the cost of moving n bytes through the cache.
func memcpyTime(n int64) sim.Duration {
	return sim.Duration(float64(n) / float64(calib.MemcpyBandwidth) * 1e9)
}

// WriteAt writes b at offset off. Data lands dirty in the page cache at
// memory speed; if the file-system dirty limit is exceeded, the caller is
// throttled while old dirty data is written back (Linux balance_dirty_pages
// semantics). Once the backing device has failed the file system is
// effectively remounted read-only and writes return ErrDiskFailed.
func (f *File) WriteAt(p *sim.Proc, off int64, b payload.Buffer) error {
	if c := obs.Get(f.fs.E); c != nil {
		start := p.Now()
		span := c.StartSpan(start, "vfs.write", f.fs.node+"/fs", 0)
		c.SpanAttr(span, "bytes", strconv.FormatInt(b.Size(), 10))
		err := f.writeAt(p, off, b)
		end := p.Now()
		c.Hist("vfs.write_us", obs.LatencyBucketsUS).Observe(float64(end.Sub(start)) / 1e3)
		c.EndSpan(end, span)
		return err
	}
	return f.writeAt(p, off, b)
}

func (f *File) writeAt(p *sim.Proc, off int64, b payload.Buffer) error {
	if f.fs.disk.failed {
		return ErrDiskFailed
	}
	n := b.Size()
	f.c.writeAt(off, b)
	p.Sleep(memcpyTime(n))
	f.cachedB += n
	f.dirtyB += n
	f.fs.cached += n
	f.fs.dirty += n
	if f.fs.dirty > f.fs.dirtyLimit {
		if err := f.fs.writeback(p, f.fs.dirty-f.fs.dirtyLimit); err != nil {
			return err
		}
	}
	f.fs.evictIfNeeded()
	return nil
}

// Append writes b at the end of the file.
func (f *File) Append(p *sim.Proc, b payload.Buffer) error {
	return f.WriteAt(p, f.c.size, b)
}

// ReadAt reads [off, off+n). Resident bytes cost a memory copy; the rest is
// fetched from the device (and becomes resident).
func (f *File) ReadAt(p *sim.Proc, off, n int64) payload.Buffer {
	data := f.c.readAt(off, n)
	resident := f.cachedB
	if resident > f.c.size {
		resident = f.c.size
	}
	var frac float64
	if f.c.size > 0 {
		frac = float64(resident) / float64(f.c.size)
	}
	hit := int64(frac * float64(n))
	miss := n - hit
	p.Sleep(memcpyTime(hit))
	if miss > 0 {
		f.fs.disk.Read(p, miss)
		p.Sleep(memcpyTime(miss))
		f.cachedB += miss
		f.fs.cached += miss
		f.fs.evictIfNeeded()
	}
	return data
}

// Sync writes the file's dirty data to the device and commits the journal.
func (f *File) Sync(p *sim.Proc) error {
	if c := obs.Get(f.fs.E); c != nil {
		start := p.Now()
		span := c.StartSpan(start, "vfs.sync", f.fs.node+"/fs", 0)
		err := f.sync(p)
		end := p.Now()
		c.Hist("vfs.sync_us", obs.LatencyBucketsUS).Observe(float64(end.Sub(start)) / 1e3)
		c.EndSpan(end, span)
		return err
	}
	return f.sync(p)
}

func (f *File) sync(p *sim.Proc) error {
	if f.dirtyB > 0 {
		n := f.dirtyB
		f.dirtyB = 0
		f.fs.dirty -= n
		if err := f.fs.disk.Write(p, n); err != nil {
			return err
		}
	}
	if f.fs.disk.failed {
		return ErrDiskFailed
	}
	f.fs.disk.Op(p)
	return nil
}

// Close releases the handle (and its device stream registration).
func (f *File) Close() {
	if f.opens <= 0 {
		panic("vfs: close of unopened file " + f.name)
	}
	f.opens--
	f.fs.disk.EndStream()
}

// Content returns the file's full content (no timing cost; for verification).
func (f *File) Content() payload.Buffer { return f.c.data() }

// writeback flushes at least n dirty bytes, oldest files first, charging the
// calling (throttled) process.
func (fs *FileSystem) writeback(p *sim.Proc, n int64) error {
	for _, f := range fs.order {
		if n <= 0 {
			break
		}
		if f.dirtyB == 0 {
			continue
		}
		take := f.dirtyB
		if take > n {
			take = n
		}
		f.dirtyB -= take
		fs.dirty -= take
		n -= take
		if err := fs.disk.Write(p, take); err != nil {
			return err
		}
	}
	return nil
}

// DropCaches discards clean resident data (echo 3 > drop_caches); dirty data
// stays resident. Used to model the cold cache a restart-after-failure sees.
func (fs *FileSystem) DropCaches() {
	for _, f := range fs.order {
		clean := f.cachedB - f.dirtyB
		if clean > 0 {
			f.cachedB -= clean
			fs.cached -= clean
		}
	}
}

// evictIfNeeded drops clean pages (oldest files first) to stay within the
// cache capacity.
func (fs *FileSystem) evictIfNeeded() {
	for _, f := range fs.order {
		if fs.cached <= fs.cacheCap {
			return
		}
		clean := f.cachedB - f.dirtyB
		if clean <= 0 {
			continue
		}
		need := fs.cached - fs.cacheCap
		if clean > need {
			clean = need
		}
		f.cachedB -= clean
		fs.cached -= clean
	}
}
