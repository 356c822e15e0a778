package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteSummary writes the plain-text export: the span tree (each span with
// its duration and actor, children indented under parents), then counters,
// gauges, histogram digests and device utilization, all in deterministic
// order. Call Finish first.
func WriteSummary(w io.Writer, c *Collector) error {
	if c == nil {
		_, err := io.WriteString(w, "observability: disabled\n")
		return err
	}
	var b strings.Builder

	if len(c.spans) > 0 {
		b.WriteString("spans:\n")
		children := make(map[SpanID][]SpanID)
		var roots []SpanID
		for i := range c.spans {
			id := SpanID(i + 1)
			p := c.spans[i].Parent
			if p == 0 {
				roots = append(roots, id)
			} else {
				children[p] = append(children[p], id)
			}
		}
		var walk func(id SpanID, depth int)
		walk = func(id SpanID, depth int) {
			s := c.spans[id-1]
			fmt.Fprintf(&b, "  %s%-*s %10.3fms  @%-11.3fms %s",
				strings.Repeat("  ", depth), 34-2*depth, s.Name,
				s.End.Sub(s.Start).Seconds()*1e3, s.Start.Milliseconds(), s.Actor)
			for _, a := range s.Attrs {
				fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
			}
			b.WriteByte('\n')
			kids := children[id]
			// Chunk-level fan-out would swamp the tree; summarize runs of
			// same-named children past a handful.
			printed := make(map[string]int)
			for _, k := range kids {
				printed[c.spans[k-1].Name]++
			}
			shown := make(map[string]int)
			for _, k := range kids {
				name := c.spans[k-1].Name
				if printed[name] > 8 {
					shown[name]++
					if shown[name] == 1 {
						kid := c.spans[k-1]
						fmt.Fprintf(&b, "  %s%-*s ×%d (first @%.3fms)\n",
							strings.Repeat("  ", depth+1), 34-2*(depth+1), name,
							printed[name], kid.Start.Milliseconds())
					}
					continue
				}
				walk(k, depth+1)
			}
		}
		for _, r := range roots {
			walk(r, 0)
		}
	}

	if names := c.CounterNames(); len(names) > 0 {
		b.WriteString("counters:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %-34s %d\n", n, c.counters[n])
		}
	}
	if names := c.GaugeNames(); len(names) > 0 {
		b.WriteString("gauges:\n")
		for _, n := range names {
			fmt.Fprintf(&b, "  %-34s %g\n", n, c.gauges[n])
		}
	}
	if names := c.HistNames(); len(names) > 0 {
		b.WriteString("histograms (µs):\n")
		for _, n := range names {
			h := c.hists[n]
			fmt.Fprintf(&b, "  %-34s n=%-7d p50=%-10.1f p99=%-10.1f max=%-10.1f mean=%.1f\n",
				n, h.Count(), h.Quantile(0.50), h.Quantile(0.99), h.Max(), h.Mean())
		}
	}
	if names := c.TrackNames(); len(names) > 0 {
		b.WriteString("device utilization:\n")
		for _, n := range names {
			tr := c.tracks[n]
			fmt.Fprintf(&b, "  %-34s busy=%5.1f%% mean=%5.1f%% peak=%5.1f%% (%d/%d)\n",
				n, tr.BusyFraction()*100, tr.MeanUtilization()*100,
				tr.PeakUtilization()*100, tr.Peak, tr.Capacity)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// TopTracks returns the names of tracks matching prefix, sorted by
// descending peak utilization then name — "which link was hottest".
func (c *Collector) TopTracks(prefix string) []string {
	if c == nil {
		return nil
	}
	var names []string
	for _, n := range c.TrackNames() {
		if strings.HasPrefix(n, prefix) {
			names = append(names, n)
		}
	}
	sort.SliceStable(names, func(i, j int) bool {
		pi, pj := c.tracks[names[i]].PeakUtilization(), c.tracks[names[j]].PeakUtilization()
		if pi != pj {
			return pi > pj
		}
		return names[i] < names[j]
	})
	return names
}

// BusiestTrack returns the track matching prefix with the highest busy
// fraction, and that fraction. Capacity-1 links all peak at 100%, so this,
// not the head of TopTracks, names the hottest link of a run.
func (c *Collector) BusiestTrack(prefix string) (name string, busy float64) {
	for _, n := range c.TopTracks(prefix) {
		if b := c.tracks[n].BusyFraction(); b > busy {
			name, busy = n, b
		}
	}
	return name, busy
}
