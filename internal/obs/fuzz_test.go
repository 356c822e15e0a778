package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"ibmig/internal/sim"
)

// ValidateSSE is the schema gate for captured /stream output, so it must
// reject malformed input with an error, never a panic, and must accept what
// the server's own framing produces: a stream it accepts, re-framed event by
// event through WriteSSE, is accepted again.

func FuzzValidateSSE(f *testing.F) {
	f.Add([]byte(sseGoodStream))
	for _, bad := range sseBadStreams {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if ValidateSSE(data) != nil {
			return
		}
		var out bytes.Buffer
		sc := bufio.NewScanner(bytes.NewReader(data))
		sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
		for sc.Scan() {
			line, ok := bytes.CutPrefix(sc.Bytes(), []byte("data:"))
			if !ok {
				continue
			}
			var ev WireEvent
			if err := json.Unmarshal(bytes.TrimSpace(line), &ev); err != nil {
				t.Fatalf("accepted stream has an undecodable event %q: %v", line, err)
			}
			if err := WriteSSE(&out, ev); err != nil {
				t.Fatalf("WriteSSE(%+v): %v", ev, err)
			}
		}
		if err := ValidateSSE(out.Bytes()); err != nil {
			t.Fatalf("re-framed stream rejected: %v\ninput:  %q\nframed: %q", err, data, out.Bytes())
		}
	})
}

// ValidateChromeTrace is the schema gate cmd/tracecheck and CI run on trace
// files from outside the process, so it must reject malformed input with an
// error, never a panic. And whatever WriteChromeTrace emits must pass it: the
// fuzz input also scripts a small collector (nested, overlapping and
// never-closed spans across a few actors, counters, gauges, histogram
// observations and utilization samples, on a non-decreasing clock) whose
// export must validate.
func FuzzValidateChromeTrace(f *testing.F) {
	var good bytes.Buffer
	if err := WriteChromeTrace(&good, buildTestCollector()); err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	f.Add([]byte(`{"traceEvents":[{"ph":"E","name":"x"}]}`))
	f.Add([]byte(`{"traceEvents":[{"ph":"B","ts":2},{"ph":"B","ts":1}]}`))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Fuzz(func(t *testing.T, data []byte) {
		_ = ValidateChromeTrace(data)

		c := scriptedCollector(data)
		var out bytes.Buffer
		if err := WriteChromeTrace(&out, c); err != nil {
			t.Fatalf("WriteChromeTrace: %v", err)
		}
		if err := ValidateChromeTrace(out.Bytes()); err != nil {
			t.Fatalf("exported trace rejected: %v\nscript: %v", err, data)
		}
	})
}

// scriptedCollector builds a collector from a byte script, of which it reads
// at most 256 bytes: each byte advances the clock by its top bits (in µs)
// and performs the operation its low three bits select.
func scriptedCollector(script []byte) *Collector {
	script = script[:min(len(script), 256)]
	c := New()
	actors := []string{"jm", "node01", "node02"}
	names := []string{"migration", "phase1", "phase2", "ckpt"}
	var open []SpanID
	var t sim.Time
	for i, b := range script {
		t += sim.Time(b>>3) * sim.Time(time.Microsecond)
		pick := int(b>>3) + i
		switch b & 7 {
		case 0, 1, 2:
			var parent SpanID
			if len(open) > 0 && b&1 == 0 {
				parent = open[pick%len(open)]
			}
			open = append(open, c.StartSpan(t, names[pick%len(names)], actors[pick%len(actors)], parent))
		case 3, 4:
			if len(open) > 0 {
				k := pick % len(open)
				c.EndSpan(t, open[k])
				open = append(open[:k], open[k+1:]...)
			}
		case 5:
			c.Add(names[pick%len(names)], int64(b))
			c.SetGauge(actors[pick%len(actors)], float64(b))
		case 6:
			c.Hist("lat_us", LatencyBucketsUS).Observe(float64(b) * 3)
		case 7:
			c.Usage(t, actors[pick%len(actors)]+".disk", int64(b&3), 3)
		}
	}
	c.Finish(t + sim.Time(time.Microsecond))
	return c
}
