package sim

// Conservative time-windowed partitioned execution.
//
// A Partitioned run splits one scenario across K independent Engines
// ("logical processes" in PDES terms), each simulating a partition of the
// cluster. Partitions interact only through declared CrossLinks, each with a
// fixed minimum latency; the minimum latency of a partition's outgoing links
// is its lookahead. Execution proceeds in bounded windows:
//
//	horizon = min over partitions i of
//	          min over i's outgoing links l of
//	          max(nextEvent(i) + latency(l), promise(l))
//
// Every partition then executes all events with t < horizon — in parallel on
// worker goroutines, with no shared state — because no cross-partition
// message produced inside the window can be delivered before the horizon:
// a message sent at s >= nextEvent(i) over a link of latency L arrives at
// s + L >= nextEvent(i) + latency(l) >= horizon. Applications that know
// their next send is further out than the raw link latency (e.g. nothing
// crosses before a job's launch ends) can raise the bound with
// CrossLink.Promise, which widens windows without changing results. At the
// window edge a barrier collects every link's outbox and injects the
// messages into their destination engines in deterministic (deliver time,
// link registration order, link FIFO order), so destination-side event seq
// assignment — and therefore the trace — is bit-identical at any worker
// count. This is null-message-style conservative synchronization (no
// rollback); violations of a link's promise or latency panic inside the
// sending process, and a delivery behind its destination's clock panics at
// the barrier.
//
// workers=1 runs the partitions sequentially in partition order on the
// calling goroutine — the proven serial dispatcher, same results. parts=1
// degenerates to a single plain Engine with no windows at all.

import (
	"fmt"
	"sort"
	"sync"

	"ibmig/internal/payload"
)

// maxTime is the largest representable virtual time, used as "no bound".
const maxTime = Time(1<<63 - 1)

// seedMix spreads a partition index into seed space (golden-ratio mix, the
// same idiom the payload checksum shards use).
const seedMix = 0x9E3779B97F4A7C15

// crossMsg is one in-flight cross-partition message.
type crossMsg struct {
	t Time // delivery time in the destination engine
	v any
}

// CrossLink is a unidirectional typed-by-convention channel between two
// partitions with a declared minimum latency. Send may only be called from
// process or callback context of the source partition during a window;
// deliveries are handed to the Bind callback in the destination engine at
// exactly send time + latency.
type CrossLink struct {
	pe       *Partitioned
	name     string
	idx      int // registration order; the deterministic merge tie-break
	from, to int
	latency  Duration

	deliver func(t Time, v any)
	outbox  []crossMsg
	promise Time // no future delivery on this link before this instant

	sent      uint64
	delivered uint64
}

// Sent returns the number of messages sent on the link.
func (l *CrossLink) Sent() uint64 { return l.sent }

// Delivered returns the number of messages delivered by the link.
func (l *CrossLink) Delivered() uint64 { return l.delivered }

// Send queues v for delivery to the destination partition at now + latency.
// It must be called from the source partition's execution context. Sends
// whose delivery time would land inside the current window violate the
// conservative contract (the link's latency or promise lied) and panic.
func (l *CrossLink) Send(v any) {
	src := l.pe.engines[l.from]
	t := src.now.Add(l.latency)
	if t < l.pe.horizon {
		panic(fmt.Sprintf("sim: conservative violation on link %q: delivery at %v inside window ending %v (latency or promise understated)",
			l.name, t, l.pe.horizon))
	}
	l.outbox = append(l.outbox, crossMsg{t: t, v: v})
	l.sent++
}

// Promise raises the link's delivery lower bound: the application guarantees
// no message sent on this link will be delivered before `until`. Promises
// widen execution windows beyond the raw link latency (e.g. to a compute
// block cadence); they only ever tighten monotonically, and Send enforces
// them. Call from the source partition's execution context.
func (l *CrossLink) Promise(until Time) {
	if until > l.promise {
		l.promise = until
	}
}

// Bind installs the delivery callback, invoked in the destination engine's
// context at each message's delivery time. fn must not block on simulated
// operations (hand off to a Queue or spawn a process for blocking work).
func (l *CrossLink) Bind(fn func(t Time, v any)) { l.deliver = fn }

// BindQueue routes a link's deliveries into a queue owned by the destination
// engine, the common case for process-to-process cross traffic.
func BindQueue[T any](l *CrossLink, q *Queue[T]) {
	l.Bind(func(_ Time, v any) { q.TrySend(v.(T)) })
}

// Partitioned owns K engines and runs them in conservative windows.
type Partitioned struct {
	engines []*Engine
	links   []*CrossLink
	horizon Time

	windows   uint64
	exchanged uint64

	// scratch buffers reused across windows.
	merge []mergeEntry
	errs  []error
}

type mergeEntry struct {
	t    Time
	link int
	seq  int
	v    any
}

// NewPartitioned creates parts engines with seeds derived deterministically
// from seed. Partition 0 uses exactly seed, so a one-partition run is
// bit-identical to a plain NewEngine(seed) simulation.
func NewPartitioned(seed int64, parts int) *Partitioned {
	if parts < 1 {
		panic("sim: NewPartitioned needs at least one partition")
	}
	pe := &Partitioned{}
	for i := 0; i < parts; i++ {
		pe.engines = append(pe.engines, NewEngine(seed^int64(uint64(i)*seedMix)))
	}
	return pe
}

// Engine returns partition i's engine, for building that partition's slice
// of the scenario (spawning processes, attaching fabrics, installing
// tracers).
func (pe *Partitioned) Engine(i int) *Engine { return pe.engines[i] }

// Windows returns the number of execution windows completed.
func (pe *Partitioned) Windows() uint64 { return pe.windows }

// CrossMessages returns the number of cross-partition messages delivered.
func (pe *Partitioned) CrossMessages() uint64 { return pe.exchanged }

// Events returns the total events dispatched across all partitions.
func (pe *Partitioned) Events() uint64 {
	var n uint64
	for _, e := range pe.engines {
		n += e.Events()
	}
	return n
}

// Now returns the maximum virtual time reached by any partition.
func (pe *Partitioned) Now() Time {
	var t Time
	for _, e := range pe.engines {
		if e.Now() > t {
			t = e.Now()
		}
	}
	return t
}

// Connect declares a link from partition `from` to partition `to` with the
// given minimum delivery latency. Links must be declared before Run; their
// registration order is the deterministic tie-break for same-instant
// cross-partition deliveries.
func (pe *Partitioned) Connect(name string, from, to int, latency Duration) *CrossLink {
	if from == to {
		panic("sim: cross link endpoints must be distinct partitions")
	}
	if from < 0 || from >= len(pe.engines) || to < 0 || to >= len(pe.engines) {
		panic("sim: cross link endpoint out of range")
	}
	if latency <= 0 {
		panic("sim: cross link latency must be positive (it is the lookahead)")
	}
	l := &CrossLink{pe: pe, name: name, idx: len(pe.links), from: from, to: to, latency: latency}
	pe.links = append(pe.links, l)
	return l
}

// computeHorizon returns the next window's end bound: the earliest instant
// at which any partition could be affected by another. ok is false when no
// partition has pending events (the run is over).
func (pe *Partitioned) computeHorizon() (Time, bool) {
	any := false
	horizon := maxTime
	// next pending event per partition; maxTime when drained (a drained
	// partition cannot send until a delivery revives it, and deliveries
	// are all injected before this is called).
	for i, e := range pe.engines {
		next, ok := e.NextEventTime()
		if !ok {
			continue
		}
		any = true
		for _, l := range pe.links {
			if l.from != i {
				continue
			}
			g := next.Add(l.latency)
			if l.promise > g {
				g = l.promise
			}
			if g < horizon {
				horizon = g
			}
		}
	}
	return horizon, any
}

// exchange delivers every message produced in the previous window, merged in
// deterministic (delivery time, link registration order, link FIFO order)
// and injected serially into the destination engines — so the seq numbers a
// destination assigns (and therefore its trace) do not depend on how many
// workers executed the window. A delivery behind its destination's clock
// panics, naming the link.
func (pe *Partitioned) exchange() {
	pe.merge = pe.merge[:0]
	for li, l := range pe.links {
		for si, m := range l.outbox {
			pe.merge = append(pe.merge, mergeEntry{t: m.t, link: li, seq: si, v: m.v})
		}
	}
	if len(pe.merge) == 0 {
		return
	}
	sort.Slice(pe.merge, func(a, b int) bool {
		x, y := pe.merge[a], pe.merge[b]
		if x.t != y.t {
			return x.t < y.t
		}
		if x.link != y.link {
			return x.link < y.link
		}
		return x.seq < y.seq
	})
	for i := range pe.merge {
		m := pe.merge[i]
		l := pe.links[m.link]
		if l.deliver == nil {
			panic(fmt.Sprintf("sim: cross link %q has traffic but no Bind", l.name))
		}
		t, v, deliver, dst := m.t, m.v, l.deliver, pe.engines[l.to]
		if t < dst.now {
			// Engine.At would clamp it to the clock and hide the violation.
			panic(fmt.Sprintf("sim: conservative violation on link %q: delivery at %v behind partition %d's clock %v",
				l.name, t, l.to, dst.now))
		}
		dst.At(t, func() { deliver(t, v) })
		l.delivered++
		pe.exchanged++
		pe.merge[i].v = nil
	}
	for _, l := range pe.links {
		for i := range l.outbox {
			l.outbox[i] = crossMsg{}
		}
		l.outbox = l.outbox[:0]
	}
}

// runWindow executes all partitions up to (exclusive) the horizon, on up to
// `workers` goroutines. Partitions share no state during a window — cross
// sends append to engine-local outboxes — so parallel execution is safe; the
// deterministic merge at the barrier makes it reproducible.
func (pe *Partitioned) runWindow(workers int, horizon Time) error {
	deadline := horizon - 1 // RunUntil is inclusive; windows are [T, horizon)
	if pe.errs == nil {
		pe.errs = make([]error, len(pe.engines))
	}
	if workers > len(pe.engines) {
		workers = len(pe.engines)
	}
	if workers <= 1 {
		for i, e := range pe.engines {
			pe.errs[i] = e.RunUntil(deadline)
		}
	} else {
		var wg sync.WaitGroup
		idx := make(chan int, len(pe.engines))
		for i := range pe.engines {
			idx <- i
		}
		close(idx)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for i := range idx {
					pe.errs[i] = pe.engines[i].RunUntil(deadline)
				}
			}()
		}
		wg.Wait()
	}
	for i, err := range pe.errs {
		if err != nil {
			return fmt.Errorf("sim: partition %d: %w", i, err)
		}
	}
	return nil
}

// Run executes the partitioned simulation to completion: windows are run
// until every partition drains or any partition calls Stop. workers bounds
// the goroutines executing partitions within a window; workers=1 is fully
// serial. The error is the first partition failure (process panic), in
// partition order.
//
// Unlike Engine.Run, a drained run with still-blocked processes is not an
// error here: perpetual daemons (network pumps) legitimately outlive the
// workload in every partition. Use Blocked to audit liveness explicitly.
func (pe *Partitioned) Run(workers int) error {
	for {
		pe.exchange()
		horizon, ok := pe.computeHorizon()
		if !ok {
			return nil
		}
		pe.horizon = horizon
		if err := pe.runWindow(workers, horizon); err != nil {
			return err
		}
		pe.windows++
		// The window barrier is a natural reclamation boundary: nothing
		// produced inside the window can still reference extent nodes retired
		// during it once the merge has run.
		payload.AdvanceEpoch()
		for _, e := range pe.engines {
			if e.Stopped() {
				return nil
			}
		}
	}
}

// Blocked aggregates every partition's blocked-process report, prefixed with
// the partition index. Scenario drivers use it to assert liveness after Run.
func (pe *Partitioned) Blocked() []string {
	var out []string
	for i, e := range pe.engines {
		for _, b := range e.BlockedProcs() {
			out = append(out, fmt.Sprintf("p%d/%s", i, b))
		}
	}
	return out
}

// Shutdown unwinds every partition's remaining processes, in partition
// order. The ensemble must not be used afterwards.
func (pe *Partitioned) Shutdown() {
	for _, e := range pe.engines {
		e.Shutdown()
	}
}
