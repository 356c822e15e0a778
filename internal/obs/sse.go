package obs

// The wire format for streamed telemetry: one JSON object per event, carried
// as Server-Sent Events "data:" lines by cmd/obsserve's /stream endpoint.
// ValidateSSE is the schema check cmd/tracecheck -sse applies in CI, the
// streaming counterpart of ValidateChromeTrace.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// WireEvent is the JSON shape of one streamed telemetry event. The base
// fields mirror Event; the campaign fields are used only by the server-side
// "campaign" kind (exp.RunCampaign rollups: goodput-so-far, MTTR,
// attempts), and "done" marks the end of a stream.
type WireEvent struct {
	Kind   string `json:"kind"`
	TNS    int64  `json:"t_ns"`
	Name   string `json:"name,omitempty"`
	Actor  string `json:"actor,omitempty"`
	Span   int32  `json:"span,omitempty"`
	Parent int32  `json:"parent,omitempty"`

	Value    float64 `json:"value,omitempty"`
	Capacity int64   `json:"capacity,omitempty"`
	Str      string  `json:"str,omitempty"`

	// Campaign rollup fields (kind "campaign").
	Strategy    string  `json:"strategy,omitempty"`
	ProgressPct float64 `json:"progress_pct,omitempty"`
	GoodputPct  float64 `json:"goodput_pct,omitempty"`
	MTTRNS      int64   `json:"mttr_ns,omitempty"`
	Attempts    int     `json:"attempts,omitempty"`
	Done        bool    `json:"done,omitempty"`
}

// Wire converts an in-memory Event to its JSON wire shape.
func (ev Event) Wire() WireEvent {
	return WireEvent{
		Kind:     ev.Kind.String(),
		TNS:      int64(ev.T),
		Name:     ev.Name,
		Actor:    ev.Actor,
		Span:     int32(ev.Span),
		Parent:   int32(ev.Parent),
		Value:    ev.Value,
		Capacity: ev.Capacity,
		Str:      ev.Str,
	}
}

// WriteSSE frames one wire event as an SSE message ("data: {...}\n\n").
func WriteSSE(w io.Writer, ev WireEvent) error {
	data, err := json.Marshal(ev)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "data: %s\n\n", data)
	return err
}

// sseKinds is the closed set of wire kinds ValidateSSE accepts: the Event
// kinds plus the server-generated campaign rollup and stream terminator.
var sseKinds = map[string]bool{
	"span_open": true, "span_close": true, "span_attr": true,
	"counter": true, "gauge": true, "usage": true, "hist": true,
	"heartbeat": true, "campaign": true, "done": true,
}

// ValidateSSE checks a captured Server-Sent-Events stream: every data line
// must be a JSON WireEvent of a known kind with the kind's required fields,
// and engine-event timestamps must be nondecreasing (campaign rollups are
// exempt — each campaign arm runs its own virtual clock). Comment, event,
// id and retry framing lines are permitted; anything else is an error.
func ValidateSSE(data []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	var (
		events int
		lastT  int64
		lineNo int
	)
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		switch {
		case len(bytes.TrimSpace(line)) == 0:
			continue // message separator
		case line[0] == ':':
			continue // comment / keep-alive
		case bytes.HasPrefix(line, []byte("event:")),
			bytes.HasPrefix(line, []byte("id:")),
			bytes.HasPrefix(line, []byte("retry:")):
			continue
		case bytes.HasPrefix(line, []byte("data:")):
		default:
			return fmt.Errorf("sse: line %d: not an SSE field: %q", lineNo, line)
		}
		payload := bytes.TrimSpace(line[len("data:"):])
		var ev WireEvent
		if err := json.Unmarshal(payload, &ev); err != nil {
			return fmt.Errorf("sse: line %d: invalid event JSON: %w", lineNo, err)
		}
		events++
		if !sseKinds[ev.Kind] {
			return fmt.Errorf("sse: line %d: unknown event kind %q", lineNo, ev.Kind)
		}
		if ev.TNS < 0 {
			return fmt.Errorf("sse: line %d: negative timestamp %d", lineNo, ev.TNS)
		}
		switch ev.Kind {
		case "span_open":
			if ev.Name == "" || ev.Span <= 0 {
				return fmt.Errorf("sse: line %d: span_open requires name and a positive span id: %q", lineNo, payload)
			}
		case "span_close", "span_attr":
			if ev.Span <= 0 {
				return fmt.Errorf("sse: line %d: %s requires a positive span id: %q", lineNo, ev.Kind, payload)
			}
		case "counter", "gauge", "usage", "hist":
			if ev.Name == "" {
				return fmt.Errorf("sse: line %d: %s requires a name: %q", lineNo, ev.Kind, payload)
			}
		case "campaign":
			if ev.Strategy == "" {
				return fmt.Errorf("sse: line %d: campaign event requires a strategy: %q", lineNo, payload)
			}
		}
		if ev.Kind != "campaign" && ev.Kind != "done" {
			if ev.TNS < lastT {
				return fmt.Errorf("sse: line %d: timestamp %d goes backwards (prev %d)", lineNo, ev.TNS, lastT)
			}
			lastT = ev.TNS
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("sse: %w", err)
	}
	if events == 0 {
		return fmt.Errorf("sse: stream carried no events")
	}
	return nil
}
