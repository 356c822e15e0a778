package check

// The partitioned kind: seeded cross-partition traffic through
// sim.Partitioned, checked against the invariants of the engine ensemble
// itself and re-run on one worker to prove the worker count invisible:
//
//	latency       every delivery arrives at exactly send time + link latency
//	fifo          per-link deliveries preserve send order
//	conservation  every message sent is delivered exactly once, on its own
//	              link (none lost, none duplicated, none left in an outbox)
//	monotonic     delivery times per link never regress
//	determinism   per-partition traces, event, window and cross-message
//	              counts and final times match at workers=1 and workers=W
//	engine        the ensemble's run ends without a process failure
//
// Specs are "part"-prefixed (`protocheck -spec "part seed=7 p=4 w=4"`); the
// traffic shape is drawn from the seed, so one integer pins the run.

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"ibmig/internal/sim"
)

// PartScenario is one partitioned DST run: a bidirectional ring of Parts
// partitions, run on Workers goroutines.
type PartScenario struct {
	Seed    int64 `json:"seed"`
	Parts   int   `json:"parts"`
	Workers int   `json:"workers"`
}

// partSpec is the partitioned spec's field table. Its defaults are the
// smallest ring on one worker; the shrinker shrinks the ring before it drops
// the worker cross-check.
var partSpec = newCodec("part",
	[]string{"p", "w"},
	seed(func(s *PartScenario) *int64 { return &s.Seed }),
	num("p", func(s *PartScenario) *int { return &s.Parts }, 2),
	num("w", func(s *PartScenario) *int { return &s.Workers }, 1),
)

// partMax bounds both the ring size and the worker count.
const partMax = 64

// String renders the canonical "part"-prefixed spec.
func (s PartScenario) String() string { return partSpec.format(s) }

// Fields counts spec fields differing from the default (seed excluded).
func (s PartScenario) Fields() int { return partSpec.count(s) }

func (s PartScenario) candidates() []PartScenario { return partSpec.candidates(s) }

// Valid reports whether the scenario is inside the partitioned envelope: a
// ring needs two partitions (sim.Partitioned rejects a self-loop link).
func (s PartScenario) Valid() error {
	switch {
	case s.Parts < 2 || s.Parts > partMax:
		return fmt.Errorf("check: parts %d out of range [2,%d]", s.Parts, partMax)
	case s.Workers < 1 || s.Workers > partMax:
		return fmt.Errorf("check: workers %d out of range [1,%d]", s.Workers, partMax)
	}
	return nil
}

// Partitioned is the partitioned-engine kind. Its sweeps run each scenario
// on workers goroutines with parts partitions, or 2-5 drawn from the seed
// when parts is 0. It reports an error, with the kind, if either is outside
// PartScenario's envelope.
func Partitioned(parts, workers int) (Kind[PartScenario, *PartResult, *partSummary], error) {
	ring := "random 2-5"
	if parts != 0 {
		ring = fmt.Sprint(parts)
	}
	k := Kind[PartScenario, *PartResult, *partSummary]{
		label: "protocheck[partitioned]",
		scope: fmt.Sprintf(", parts %s, workers %d", ring, workers),
		width: 12,
		holds: "all partitioned invariants hold",
		parse: partSpec.parse,
		generate: func(seed int64) PartScenario {
			return PartScenario{Seed: seed, Parts: cmp.Or(parts, 2+int(seed&3)), Workers: workers}
		},
		run:     runPart,
		summary: func() *partSummary { return &partSummary{} },
	}
	// Every spec k generates has these workers and, if fixed, these parts.
	return k, k.generate(0).Valid()
}

// partMsg is the traffic the scenarios exchange: enough to verify latency,
// ordering and identity on the receive side.
type partMsg struct {
	link int
	seq  int
	sent sim.Time
}

// PartResult is one partitioned scenario's outcome at its worker count.
type PartResult struct {
	outcome[PartScenario]
	Sent    uint64   `json:"messages_sent"`
	Windows uint64   `json:"windows"`
	Events  uint64   `json:"events"`
	Cross   uint64   `json:"cross_messages"`
	Now     sim.Time `json:"final_ns"`
	Traces  []uint64 `json:"trace_fingerprints"` // one per partition
}

func (r *PartResult) describe(w io.Writer) {
	fmt.Fprintf(w, "partitioned scenario: %s\n  sent %d, %s\n", r.Spec, r.Sent, r.ensemble())
}

// runPart runs the scenario at its worker count and, unless that is 1,
// again on one worker, and cross-checks the two runs.
func runPart(s PartScenario) *PartResult {
	res := &PartResult{}
	res.guard(s, nil, func() {
		res.exec(s.Workers)
		if s.Workers > 1 {
			serial := &PartResult{outcome: outcome[PartScenario]{Scenario: s}}
			serial.exec(1)
			res.Violations = append(res.Violations, serial.Violations...)
			if got, want := res.ensemble(), serial.ensemble(); got != want {
				res.Violations = append(res.Violations, Violation{Invariant: "determinism", T: res.Now,
					Detail: fmt.Sprintf("%s at workers=%d, %s at workers=1", got, s.Workers, want)})
			}
		}
	})
	return res
}

// ensemble renders what the worker count must not change.
func (r *PartResult) ensemble() string {
	return fmt.Sprintf("traces %x events %d windows %d cross %d now %v", r.Traces, r.Events, r.Windows, r.Cross, r.Now)
}

// exec builds r's seeded scenario and runs it on workers goroutines. The
// topology is a bidirectional ring with randomized per-link latencies; each
// partition runs one or two periodic senders, each owning one outgoing
// link, some with honest cadence promises (Promise(now+period): the
// sender's next send is exactly one period away).
func (r *PartResult) exec(workers int) {
	seed, parts := r.Scenario.Seed, r.Scenario.Parts
	rng := rand.New(rand.NewSource(seed))
	pe := sim.NewPartitioned(seed, parts)
	recs := make([]sim.Recorder, parts)
	for i := range recs {
		pe.Engine(i).SetTracer(&recs[i])
	}

	type linkState struct {
		l        *sim.CrossLink
		idx      int
		nextSend int // sender-side seq counter (one FIFO stream per link)
		want     int // receiver-side next expected seq (fifo)
		got      int
		lastT    sim.Time
	}
	// Bind callbacks fire on destination engines, which run concurrently
	// under workers>1; the violation list needs the lock.
	var mu sync.Mutex
	vio := func(name string, t sim.Time, format string, a ...any) {
		mu.Lock()
		r.Violations = append(r.Violations, Violation{Invariant: name, Detail: fmt.Sprintf(format, a...), T: t})
		mu.Unlock()
	}

	// Bidirectional ring, forward links first: links[p] and links[parts+p]
	// leave partition p. A 2-partition ring still has distinct forward and
	// backward links.
	var links []*linkState
	connect := func(from, to int) {
		lat := sim.Duration(1+rng.Intn(50)) * sim.Duration(time.Microsecond)
		idx := len(links)
		ls := &linkState{idx: idx}
		ls.l = pe.Connect(fmt.Sprintf("ring.%d-%d", from, to), from, to, lat)
		ls.l.Bind(func(t sim.Time, v any) {
			m := v.(partMsg)
			if m.link != idx {
				vio("conservation", t, "link %d delivered message for link %d", idx, m.link)
			}
			if want := m.sent.Add(lat); t != want {
				vio("latency", t, "link %d: delivery at %v, want send %v + latency %v", idx, t, m.sent, lat)
			}
			if m.seq != ls.want {
				vio("fifo", t, "link %d: got seq %d want %d", idx, m.seq, ls.want)
			}
			if t < ls.lastT {
				vio("monotonic", t, "link %d: delivery time regressed %v -> %v", idx, ls.lastT, t)
			}
			ls.want = m.seq + 1
			ls.lastT = t
			ls.got++
		})
		links = append(links, ls)
	}
	for _, step := range []int{1, parts - 1} {
		for i := 0; i < parts; i++ {
			connect(i, (i+step)%parts)
		}
	}

	for p := 0; p < parts; p++ {
		mine := []*linkState{links[p], links[parts+p]}
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
		vio("engine", pe.Now(), "%v", err)
	}
	for i, ls := range links {
		r.Sent += uint64(ls.nextSend)
		if ls.got != ls.nextSend || uint64(ls.got) != ls.l.Delivered() || ls.l.Sent() != ls.l.Delivered() {
			vio("conservation", pe.Now(), "link %d: sent=%d delivered=%d consumed=%d", i, ls.l.Sent(), ls.l.Delivered(), ls.got)
		}
	}
	for i := range recs {
		r.Traces = append(r.Traces, recs[i].Fingerprint())
	}
	r.Events = pe.Events()
	r.Windows = pe.Windows()
	r.Cross = pe.CrossMessages()
	r.Now = pe.Now()
	pe.Shutdown()
}

// partSummary tallies a partitioned sweep's traffic.
type partSummary struct {
	sweepHead[*PartResult]
	Sent    uint64 `json:"messages_sent"`
	Windows uint64 `json:"windows"`
	Events  uint64 `json:"total_events"`
}

func (s *partSummary) header() *sweepHead[*PartResult] { return &s.sweepHead }

func (s *partSummary) add(r *PartResult) {
	s.Sent += r.Sent
	s.Windows += r.Windows
	s.Events += r.Events
}

func (s *partSummary) writeTallies(w io.Writer) {
	fmt.Fprintf(w, "  traffic: %d cross messages over %d windows, %d kernel events\n", s.Sent, s.Windows, s.Events)
}
