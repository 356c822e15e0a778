package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
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
