package vfs

import (
	"fmt"

	"ibmig/internal/payload"
)

// holeSeed generates the deterministic filler for unwritten file ranges.
const holeSeed = 0x484f4c45 // "HOLE"

// content is a growable byte store backed by a coalescing extent tree,
// shared by the local and parallel file implementations. Sequential
// checkpoint streams — the dominant write pattern — append synthetic extents
// that continue each other's seed streams, so the tree coalesces them and a
// multi-GB file stays a handful of descriptors.
type content struct {
	size int64
	t    payload.Tree
}

// writeAt splices b into [off, off+b.Size()), growing the store (padding any
// gap with deterministic filler) as needed. Overwrites cut and stitch extent
// descriptors in O(log extents); nothing is rebuilt or materialized.
func (c *content) writeAt(off int64, b payload.Buffer) {
	if off < 0 {
		panic("vfs: negative write offset")
	}
	n := b.Size()
	if off > c.size {
		c.t.Splice(c.size, 0, payload.Synth(holeSeed, c.size, off-c.size))
		c.size = off
	}
	del := n
	if off+del > c.size {
		del = c.size - off
	}
	c.t.Splice(off, del, b)
	if off+n > c.size {
		c.size = off + n
	}
}

// readAt returns [off, off+n) without copying.
func (c *content) readAt(off, n int64) payload.Buffer {
	if off < 0 || n < 0 || off+n > c.size {
		panic(fmt.Sprintf("vfs: read [%d,%d) beyond size %d", off, off+n, c.size))
	}
	return c.t.Slice(off, n)
}

// data returns the full content as a buffer sharing extent storage.
func (c *content) data() payload.Buffer { return c.t.Buffer() }

// release returns the store's extent nodes to the payload arena and resets
// it to empty. Called when the file's lifecycle ends: truncation by Create,
// or Remove.
func (c *content) release() {
	c.t.Release()
	c.size = 0
}
