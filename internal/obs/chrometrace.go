package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// Chrome trace-event export: the collector's spans become B/E duration
// events and its utilization tracks become C counter series, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
//
// Track layout: the first slash-separated segment of a span's actor (a node
// name, or a logical actor like "jm") becomes the process; the full actor
// path becomes a thread. Chrome requires B/E events on one thread to nest
// like a call stack, but sibling spans on one actor may overlap freely in a
// simulator (a node pulls many RDMA chunks concurrently), so overlapping
// spans are fanned out across numbered lanes ("node03/hca", "node03/hca#2",
// ...) with a greedy first-fit that preserves parent/child nesting whenever
// the intervals allow it.

type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
	Cat  string         `json:"cat,omitempty"`
}

// WriteChromeTrace writes the collector as Chrome trace-event JSON. Call
// Finish first so open spans and usage integrals are sealed.
func WriteChromeTrace(w io.Writer, c *Collector) error {
	if c == nil {
		_, err := io.WriteString(w, `{"traceEvents":[]}`)
		return err
	}
	var events []chromeEvent

	// Stable pid/tid assignment: pids in first-appearance order of process
	// names over the deterministic span slice, tids likewise within a pid.
	pids := map[string]int{}
	tids := map[string]int{}
	pidOf := func(proc string) int {
		id, ok := pids[proc]
		if !ok {
			id = len(pids) + 1
			pids[proc] = id
			events = append(events, chromeEvent{
				Name: "process_name", Ph: "M", PID: id, TID: 0,
				Args: map[string]any{"name": proc},
			})
		}
		return id
	}
	tidOf := func(proc, lane string) (int, int) {
		pid := pidOf(proc)
		key := proc + "\x00" + lane
		id, ok := tids[key]
		if !ok {
			id = len(tids) + 1
			tids[key] = id
			events = append(events, chromeEvent{
				Name: "thread_name", Ph: "M", PID: pid, TID: id,
				Args: map[string]any{"name": lane},
			})
		}
		return pid, id
	}

	// Group spans by actor, assign lanes, and emit stack-disciplined B/E
	// sequences per lane.
	byActor := map[string][]int{}
	var actors []string
	for i, s := range c.spans {
		if _, ok := byActor[s.Actor]; !ok {
			actors = append(actors, s.Actor)
		}
		byActor[s.Actor] = append(byActor[s.Actor], i)
	}
	sort.Strings(actors)
	for _, actor := range actors {
		proc := actor
		if i := strings.IndexByte(actor, '/'); i >= 0 {
			proc = actor[:i]
		}
		lanes := assignLanes(c.spans, byActor[actor])
		for li, lane := range lanes {
			name := actor
			if li > 0 {
				name = fmt.Sprintf("%s#%d", actor, li+1)
			}
			pid, tid := tidOf(proc, name)
			events = append(events, laneEvents(c.spans, lane, pid, tid)...)
		}
	}

	// Utilization tracks as counter series: one counter track per device,
	// on a pseudo-process named after the device's first path segment.
	for _, name := range c.TrackNames() {
		tr := c.tracks[name]
		proc := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			// resource names are dotted ("ib.tx.node03", "disk.node03"):
			// group all counters under one "devices" process for a compact
			// timeline footer.
			proc = "devices"
		}
		pid := pidOf(proc)
		for _, s := range tr.Samples {
			events = append(events, chromeEvent{
				Name: name, Ph: "C", TS: float64(s.T) / 1e3, PID: pid, TID: 0,
				Args: map[string]any{"used": s.Used},
			})
		}
	}

	// Global sort by timestamp; SliceStable keeps each lane's internal
	// (already time-ordered, stack-correct) sequence intact at ties, and
	// metadata events (ts 0) lead.
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].Ph == "M" != (events[j].Ph == "M") {
			return events[i].Ph == "M"
		}
		return events[i].TS < events[j].TS
	})

	bw := &jsonWriter{w: w}
	bw.str(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i := range events {
		if i > 0 {
			bw.str(",\n")
		}
		b, err := json.Marshal(events[i])
		if err != nil {
			return err
		}
		bw.bytes(b)
	}
	bw.str("]}\n")
	return bw.err
}

type jsonWriter struct {
	w   io.Writer
	err error
}

func (jw *jsonWriter) str(s string) {
	if jw.err == nil {
		_, jw.err = io.WriteString(jw.w, s)
	}
}
func (jw *jsonWriter) bytes(b []byte) {
	if jw.err == nil {
		_, jw.err = jw.w.Write(b)
	}
}

// assignLanes partitions one actor's spans (indices into spans) into lanes
// such that spans within a lane either nest or are disjoint — Chrome's
// per-thread stack discipline. Greedy first-fit over spans sorted by
// (Start asc, End desc, index asc): within a lane a span may be pushed on
// top of an enclosing open span or appended after all open spans ended.
func assignLanes(spans []Span, idx []int) [][]int {
	order := make([]int, len(idx))
	copy(order, idx)
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.Start != sb.Start {
			return sa.Start < sb.Start
		}
		if sa.End != sb.End {
			return sa.End > sb.End
		}
		return order[a] < order[b]
	})
	var lanes [][]int
	var stacks [][]int64 // per-lane stack of open span End times
	for _, si := range order {
		s := spans[si]
		placed := false
		for li := range lanes {
			st := stacks[li]
			for len(st) > 0 && st[len(st)-1] <= int64(s.Start) {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || st[len(st)-1] >= int64(s.End) {
				stacks[li] = append(st, int64(s.End))
				lanes[li] = append(lanes[li], si)
				placed = true
				break
			}
			stacks[li] = st
		}
		if !placed {
			lanes = append(lanes, []int{si})
			stacks = append(stacks, []int64{int64(s.End)})
		}
	}
	return lanes
}

// laneEvents emits the B/E sequence for one lane's spans (already in
// push order from assignLanes): before each B, close any open spans that
// ended at or before the new span's start.
func laneEvents(spans []Span, lane []int, pid, tid int) []chromeEvent {
	var out []chromeEvent
	var stack []Span
	closeUpTo := func(t int64) {
		for len(stack) > 0 && int64(stack[len(stack)-1].End) <= t {
			top := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			out = append(out, chromeEvent{
				Name: top.Name, Ph: "E", TS: float64(top.End) / 1e3, PID: pid, TID: tid,
			})
		}
	}
	for _, si := range lane {
		s := spans[si]
		closeUpTo(int64(s.Start))
		ev := chromeEvent{
			Name: s.Name, Ph: "B", TS: float64(s.Start) / 1e3, PID: pid, TID: tid, Cat: "sim",
		}
		if len(s.Attrs) > 0 {
			args := make(map[string]any, len(s.Attrs))
			for _, a := range s.Attrs {
				args[a.Key] = a.Value
			}
			ev.Args = args
		}
		out = append(out, ev)
		stack = append(stack, s)
	}
	closeUpTo(int64(1) << 62)
	return out
}

// ValidateChromeTrace checks that data is a well-formed Chrome trace: valid
// JSON with a traceEvents array, per-(pid,tid) non-decreasing timestamps,
// and balanced, properly nested B/E pairs. It is the schema check used by
// the exporter test and by cmd/tracecheck in CI.
func ValidateChromeTrace(data []byte) error {
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("trace: invalid JSON: %w", err)
	}
	if doc.TraceEvents == nil {
		return fmt.Errorf("trace: missing traceEvents array")
	}
	type key struct{ pid, tid int }
	lastTS := map[key]float64{}
	stacks := map[key][]string{}
	for i, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "B", "E", "C", "I", "X":
		default:
			return fmt.Errorf("trace: event %d: unknown phase %q", i, ev.Ph)
		}
		k := key{ev.PID, ev.TID}
		if prev, ok := lastTS[k]; ok && ev.TS < prev {
			return fmt.Errorf("trace: event %d (%s %q): timestamp %.3f goes backwards (prev %.3f) on pid=%d tid=%d",
				i, ev.Ph, ev.Name, ev.TS, prev, ev.PID, ev.TID)
		}
		lastTS[k] = ev.TS
		switch ev.Ph {
		case "B":
			stacks[k] = append(stacks[k], ev.Name)
		case "E":
			st := stacks[k]
			if len(st) == 0 {
				return fmt.Errorf("trace: event %d: E %q with empty stack on pid=%d tid=%d", i, ev.Name, ev.PID, ev.TID)
			}
			if ev.Name != "" && st[len(st)-1] != ev.Name {
				return fmt.Errorf("trace: event %d: E %q does not match open span %q on pid=%d tid=%d",
					i, ev.Name, st[len(st)-1], ev.PID, ev.TID)
			}
			stacks[k] = st[:len(st)-1]
		}
	}
	for k, st := range stacks {
		if len(st) > 0 {
			return fmt.Errorf("trace: %d unclosed span(s) on pid=%d tid=%d (innermost %q)", len(st), k.pid, k.tid, st[len(st)-1])
		}
	}
	return nil
}
