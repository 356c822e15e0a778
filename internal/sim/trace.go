package sim

import (
	"bufio"
	"fmt"
	"io"
)

// Tracer receives a record for every traced simulation event. Implementations
// must be cheap; tracing is on the hot path.
type Tracer interface {
	Trace(t Time, kind, who, detail string)
}

type nopTracer struct{}

func (nopTracer) Trace(Time, string, string, string) {}

// Record is one captured trace entry.
type Record struct {
	T      Time
	Kind   string
	Who    string
	Detail string
}

func (r Record) String() string {
	return fmt.Sprintf("%12.6fms %-18s %-24s %s", r.T.Milliseconds(), r.Kind, r.Who, r.Detail)
}

// Recorder is a Tracer that captures all records in memory, for tests and
// determinism checks.
//
// Like every Tracer (and like internal/obs collectors), a Recorder is
// engine-local state and is not goroutine-safe: engines running concurrently
// under exp.RunParallel must each own their own Recorder. Sharing one
// Recorder across engines is a data race (the race detector catches it; see
// TestRecorderPerEngineUnderParallelism in internal/exp).
type Recorder struct {
	Records []Record
}

// Trace implements Tracer.
func (r *Recorder) Trace(t Time, kind, who, detail string) {
	r.Records = append(r.Records, Record{t, kind, who, detail})
}

// Fingerprint is a 64-bit FNV-1a over every record rendered as
// "T|Kind|Who|Detail\n" (T in integer nanoseconds): the trace identity the
// golden and determinism tests pin.
func (r *Recorder) Fingerprint() uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, rec := range r.Records {
		s := fmt.Sprintf("%d|%s|%s|%s\n", int64(rec.T), rec.Kind, rec.Who, rec.Detail)
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
	}
	return h
}

// Writer is a Tracer that streams records to an io.Writer. Output is
// buffered (a full -trace run emits hundreds of thousands of records; an
// unbuffered write per record made such runs pathologically slow): callers
// must Flush when done. Engine.Shutdown flushes the installed tracer
// automatically.
type Writer struct {
	W io.Writer
	// Filter, if non-nil, drops records for which it returns false.
	Filter func(kind string) bool

	bw *bufio.Writer
}

// Trace implements Tracer.
func (t *Writer) Trace(tm Time, kind, who, detail string) {
	if t.Filter != nil && !t.Filter(kind) {
		return
	}
	if t.bw == nil {
		t.bw = bufio.NewWriterSize(t.W, 64<<10)
	}
	fmt.Fprintln(t.bw, Record{tm, kind, who, detail})
}

// Flush writes out any buffered records.
func (t *Writer) Flush() error {
	if t.bw == nil {
		return nil
	}
	return t.bw.Flush()
}
