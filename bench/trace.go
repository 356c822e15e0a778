package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one host-time interval the benchmark measured around its own calls
// into a layer. An op is a root span named "op"; its children are sequential
// segments (launch, app, phase1, ...), so their self times add up to the op.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for an op's root
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the traced pass began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the traced pass ends. A nil *tracer is
// the untraced pass: every method is a no-op and reads no clock.
type tracer struct {
	base  time.Time
	spans []span
	op    int
	root  int // index of the open op span + 1; 0 when none
	cur   int // index of the open segment + 1; 0 when none
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) now(at time.Time) int64 { return int64(at.Sub(t.base)) }

func (t *tracer) open(name string, parent int, at int64) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name, Start: at, End: -1})
	return len(t.spans)
}

// beginOp opens the root span of op i.
func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	t.op = i
	t.root = t.open("op", 0, t.now(time.Now()))
	t.cur = 0
}

// seg closes the open segment of the current op and opens the named one.
func (t *tracer) seg(name string) {
	if t != nil {
		t.segAt(name, time.Now())
	}
}

// segAt is seg with the boundary placed at a given instant, for boundaries
// reported after the fact.
func (t *tracer) segAt(name string, at time.Time) {
	if t == nil || t.root == 0 {
		return
	}
	ns := t.now(at)
	if t.cur != 0 {
		t.spans[t.cur-1].End = ns
	}
	t.cur = t.open(name, t.root, ns)
}

// endOp closes the open segment and the op's root span.
func (t *tracer) endOp() {
	if t == nil || t.root == 0 {
		return
	}
	ns := t.now(time.Now())
	if t.cur != 0 {
		t.spans[t.cur-1].End = ns
	}
	t.spans[t.root-1].End = ns
	t.root, t.cur = 0, 0
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of it that its children cover.
func selfTimes(spans []span) map[string]int64 {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		out[s.Name] += s.End - s.Start - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	lo, hi := int64(0), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, p.Start), min(k.End, p.End)
		if e <= s {
			continue
		}
		if s > hi {
			if hi > lo {
				total += hi - lo
			}
			lo, hi = s, e
		} else if e > hi {
			hi = e
		}
	}
	if hi > lo {
		total += hi - lo
	}
	return total
}
