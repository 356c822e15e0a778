package check

// Partitioned-execution invariant checking: seeded random cross-partition
// traffic patterns run through sim.Partitioned, each validated against the
// conservative-execution contract and re-run at a second worker count to
// prove worker-count invisibility. This is the partitioned engine's
// protocheck surface: the migration sweep checks protocol invariants inside
// one engine; PartSweep checks the invariants of the engine ensemble itself.
//
// Checked per scenario:
//
//	latency       every delivery arrives at exactly send time + link latency
//	fifo          per-link deliveries preserve send order
//	conservation  every message sent is delivered exactly once (none lost,
//	              none duplicated, none left in an outbox after drain)
//	monotonic     delivery times per link never regress
//	determinism   per-partition trace hashes, event counts, window counts and
//	              final virtual times are identical at workers=1 and workers=W

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"ibmig/internal/sim"
)

// partMsg is the traffic the synthetic scenarios exchange: enough to verify
// latency, ordering and identity on the receive side.
type partMsg struct {
	link int
	seq  int
	sent sim.Time
}

// PartResult is one partitioned scenario's outcome.
type PartResult struct {
	Seed    int64    `json:"seed"`
	Parts   int      `json:"parts"`
	Workers int      `json:"workers"`
	Links   int      `json:"links"`
	Sent    uint64   `json:"sent"`
	Windows uint64   `json:"windows"`
	Events  uint64   `json:"events"`
	Errors  []string `json:"errors,omitempty"`
}

// Failed reports whether any invariant was violated.
func (r *PartResult) Failed() bool { return len(r.Errors) > 0 }

// partRun is one execution of a synthetic scenario at a fixed worker count.
type partRun struct {
	hashes  []uint64
	events  uint64
	windows uint64
	cross   uint64
	now     sim.Time
	sent    uint64
	errs    []string
}

// runPartScenario builds the seeded scenario and executes it. The topology
// is a bidirectional ring of `parts` partitions with randomized per-link
// latencies; each partition runs one or two periodic senders, each owning
// one outgoing link, some with honest cadence promises (Promise(now+period)
// — the sender's next send is exactly one period away).
func runPartScenario(seed int64, parts, workers int) partRun {
	rng := rand.New(rand.NewSource(seed))
	pe := sim.NewPartitioned(seed, parts)
	recs := make([]*sim.Recorder, parts)
	for i := 0; i < parts; i++ {
		recs[i] = &sim.Recorder{}
		pe.Engine(i).SetTracer(recs[i])
	}

	type linkState struct {
		l        *sim.CrossLink
		idx      int
		latency  sim.Duration
		nextSend int // sender-side seq counter (one FIFO stream per link)
		want     int // receiver-side next expected seq (fifo)
		got      int
		lastT    sim.Time
	}
	var out partRun
	// Bind callbacks fire on destination engines, which run concurrently
	// under workers>1; the shared error list needs the lock.
	var mu sync.Mutex
	fail := func(f string, a ...any) {
		mu.Lock()
		out.errs = append(out.errs, fmt.Sprintf(f, a...))
		mu.Unlock()
	}

	var links []*linkState
	connect := func(from, to int) *linkState {
		lat := sim.Duration(1+rng.Intn(50)) * sim.Duration(time.Microsecond)
		idx := len(links)
		ls := &linkState{idx: idx, latency: lat}
		ls.l = pe.Connect(fmt.Sprintf("ring.%d-%d", from, to), from, to, lat)
		ls.l.Bind(func(t sim.Time, v any) {
			m := v.(partMsg)
			if m.link != idx {
				fail("link %d delivered message for link %d", idx, m.link)
			}
			if want := m.sent.Add(lat); t != want {
				fail("link %d: delivery at %v, want send %v + latency %v", idx, t, m.sent, lat)
			}
			if m.seq != ls.want {
				fail("link %d: fifo broken, got seq %d want %d", idx, m.seq, ls.want)
			}
			if t < ls.lastT {
				fail("link %d: delivery time regressed %v -> %v", idx, ls.lastT, t)
			}
			ls.want = m.seq + 1
			ls.lastT = t
			ls.got++
		})
		links = append(links, ls)
		return ls
	}
	// Bidirectional ring; a 2-partition ring still has distinct forward and
	// backward links (Connect rejects self-loops, so parts >= 2).
	fwd := make([]*linkState, parts)
	bwd := make([]*linkState, parts)
	for i := 0; i < parts; i++ {
		fwd[i] = connect(i, (i+1)%parts)
	}
	for i := 0; i < parts; i++ {
		bwd[i] = connect(i, (i-1+parts)%parts)
	}

	for p := 0; p < parts; p++ {
		mine := []*linkState{fwd[p], bwd[p]}
		if rng.Intn(2) == 0 {
			mine[0], mine[1] = mine[1], mine[0]
		}
		// One sender per outgoing link at most: a cadence promise is only
		// honest when the promiser is the link's sole sender.
		senders := 1 + rng.Intn(2)
		for s := 0; s < senders; s++ {
			ls := mine[s]
			count := 5 + rng.Intn(20)
			period := sim.Duration(10+rng.Intn(190)) * sim.Duration(time.Microsecond)
			start := sim.Duration(rng.Intn(100)) * sim.Duration(time.Microsecond)
			promising := rng.Intn(2) == 0
			pe.Engine(p).Spawn(fmt.Sprintf("send.%d.%d", p, s), func(pr *sim.Proc) {
				pr.Sleep(start)
				for i := 0; i < count; i++ {
					ls.l.Send(partMsg{link: ls.idx, seq: ls.nextSend, sent: pr.Now()})
					ls.nextSend++
					if promising && i < count-1 {
						ls.l.Promise(pr.Now().Add(period))
					}
					pr.Sleep(period)
				}
			})
		}
	}

	if err := pe.Run(workers); err != nil {
		fail("run: %v", err)
	}
	for i, ls := range links {
		out.sent += uint64(ls.nextSend)
		if ls.got != ls.nextSend || uint64(ls.got) != ls.l.Delivered() || ls.l.Sent() != ls.l.Delivered() {
			fail("link %d: conservation broken: sent=%d delivered=%d consumed=%d", i, ls.l.Sent(), ls.l.Delivered(), ls.got)
		}
	}
	for _, r := range recs {
		out.hashes = append(out.hashes, r.Fingerprint())
	}
	out.events = pe.Events()
	out.windows = pe.Windows()
	out.cross = pe.CrossMessages()
	out.now = pe.Now()
	pe.Shutdown()
	return out
}

// RunPartScenario executes one seeded partitioned scenario at the given
// worker count, then re-runs it serially and cross-checks determinism.
func RunPartScenario(seed int64, parts, workers int) *PartResult {
	if parts < 2 {
		parts = 2
	}
	res := &PartResult{Seed: seed, Parts: parts, Workers: workers, Links: 2 * parts}
	run := runPartScenario(seed, parts, workers)
	res.Sent = run.sent
	res.Windows = run.windows
	res.Events = run.events
	res.Errors = run.errs
	if workers != 1 {
		serial := runPartScenario(seed, parts, 1)
		res.Errors = append(res.Errors, serial.errs...)
		for i := range run.hashes {
			if run.hashes[i] != serial.hashes[i] {
				res.Errors = append(res.Errors,
					fmt.Sprintf("determinism: partition %d trace %#x at workers=%d vs %#x serial", i, run.hashes[i], workers, serial.hashes[i]))
			}
		}
		if run.events != serial.events || run.windows != serial.windows || run.cross != serial.cross || run.now != serial.now {
			res.Errors = append(res.Errors,
				fmt.Sprintf("determinism: events/windows/cross/now %d/%d/%d/%v at workers=%d vs %d/%d/%d/%v serial",
					run.events, run.windows, run.cross, run.now, workers, serial.events, serial.windows, serial.cross, serial.now))
		}
	}
	return res
}

// PartSummary aggregates a partitioned invariant sweep.
type PartSummary struct {
	N        int           `json:"n"`
	Seed     int64         `json:"seed"`
	Parts    int           `json:"parts"`
	Workers  int           `json:"workers"`
	Checked  int           `json:"checked"`
	Sent     uint64        `json:"messages_sent"`
	Windows  uint64        `json:"windows"`
	Events   uint64        `json:"total_events"`
	Failures []*PartResult `json:"failures,omitempty"`
}

// PartSweep runs n seeded partitioned scenarios. parts=0 randomizes the
// partition count per scenario (2-5); scenarios run sequentially — each one
// already owns `workers` goroutines.
func PartSweep(n int, seed int64, parts, workers int, progress func(done int)) *PartSummary {
	s := &PartSummary{N: n, Seed: seed, Parts: parts, Workers: workers}
	for i := 0; i < n; i++ {
		p := parts
		if p == 0 {
			p = 2 + int((seed+int64(i))%4)
		}
		r := RunPartScenario(seed+int64(i), p, workers)
		s.Checked++
		s.Sent += r.Sent
		s.Windows += r.Windows
		s.Events += r.Events
		if r.Failed() {
			s.Failures = append(s.Failures, r)
		}
		if progress != nil {
			progress(i + 1)
		}
	}
	return s
}

// Write renders the human-readable partitioned sweep summary.
func (s *PartSummary) Write(w io.Writer) {
	parts := "random 2-5"
	if s.Parts > 0 {
		parts = fmt.Sprint(s.Parts)
	}
	fmt.Fprintf(w, "protocheck[partitioned]: %d scenarios (seed %d, parts %s, workers %d): %d checked, %d failed\n",
		s.N, s.Seed, parts, s.Workers, s.Checked, len(s.Failures))
	fmt.Fprintf(w, "  traffic: %d cross messages over %d windows, %d kernel events\n", s.Sent, s.Windows, s.Events)
	for _, f := range s.Failures {
		fmt.Fprintf(w, "  FAIL seed=%d parts=%d:\n", f.Seed, f.Parts)
		for _, e := range f.Errors {
			fmt.Fprintf(w, "    %s\n", e)
		}
	}
}
