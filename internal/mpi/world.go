// Package mpi implements a miniature MPI runtime over the simulated
// InfiniBand fabric, reproducing the pieces of MVAPICH2 that the paper's
// migration framework depends on:
//
//   - ranks with tagged point-to-point messaging (eager for small messages,
//     synchronous rendezvous for large ones) over per-rank-pair reliable
//     connections, each with a registered rendezvous buffer whose remote key
//     the peer caches;
//   - collectives (Barrier, Bcast, Reduce, Allreduce) built on p2p;
//   - the checkpoint/restart suspension protocol (the paper's Phase 1 and
//     Phase 4): on request, every rank drains its in-flight messages, tears
//     down its communication endpoints (revoking cached remote keys), waits
//     for the framework to act, and then rebuilds endpoints — including a
//     serialized endpoint-information re-exchange through the job-launch
//     coordinator — before resuming.
//
// A migrated rank is rebound to its new node between suspension and resume;
// its connections are rebuilt from the new node's HCA automatically.
package mpi

import (
	"strconv"

	"ibmig/internal/calib"
	"ibmig/internal/ib"
	"ibmig/internal/proc"
	"ibmig/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// Config tunes the runtime; zero values use calibrated defaults.
type Config struct {
	EagerThreshold     int64
	RendezvousBufSize  int64
	PMIExchangePerRank sim.Duration
	ComputeSlice       sim.Duration // polling granularity inside Compute
}

func (c Config) withDefaults() Config {
	if c.EagerThreshold == 0 {
		c.EagerThreshold = calib.EagerThreshold
	}
	if c.RendezvousBufSize == 0 {
		c.RendezvousBufSize = calib.RendezvousBufSize
	}
	if c.PMIExchangePerRank == 0 {
		c.PMIExchangePerRank = calib.PMIExchangePerRank
	}
	if c.ComputeSlice == 0 {
		c.ComputeSlice = 10 * 1e6 // 10ms
	}
	return c
}

// World is one MPI job: a set of ranks placed on nodes.
type World struct {
	E      *sim.Engine
	fabric *ib.Fabric
	cfg    Config
	ranks  []*Rank

	ready *sim.Event
	done  *sim.Event
	pmi   *sim.Resource // central job-launch coordinator (endpoint exchange)

	running int

	// ftMode turns send errors from panics into bounded retries with
	// connection rebuild (see Rank.sendFT) — required when the framework
	// may fail and recover links underneath a running application.
	ftMode     bool
	ftDropped  int64
	rebuilding map[[2]int]bool // rank pairs with a connection rebuild in flight

	// hooked tracks nodes whose HCA carries our fail hook (lazy connections
	// have no QP for the fabric to break, so the world must learn of faults
	// itself). One hook per node, kept across Rebind.
	hooked map[string]bool
}

// NewWorld creates a world with one rank per placement entry; placement[i] is
// the node name hosting rank i. Every node must have an HCA on the fabric.
func NewWorld(e *sim.Engine, fabric *ib.Fabric, placement []string, cfg Config) *World {
	w := &World{
		E:          e,
		fabric:     fabric,
		cfg:        cfg.withDefaults(),
		ready:      sim.NewEvent(e),
		done:       sim.NewEvent(e),
		pmi:        sim.NewResource(e, "mpi.pmi", 1),
		rebuilding: make(map[[2]int]bool),
		hooked:     make(map[string]bool),
	}
	for i, node := range placement {
		if fabric.HCA(node) == nil {
			panic("mpi: no HCA for node " + node)
		}
		id := strconv.Itoa(i)
		w.ranks = append(w.ranks, &Rank{
			w:            w,
			id:           i,
			node:         node,
			mailbox:      sim.NewQueue[inMsg](e, "mpi.mbox."+id, 0),
			conns:        make([]*conn, len(placement)),
			opsIdle:      sim.NewGate(e, true),
			procName:     "mpi.rank." + id,
			sendrecvName: "mpi.sendrecv." + id,
			isendName:    "mpi.isend." + id,
		})
		w.hookNode(node)
	}
	return w
}

// hookNode subscribes the world to a node adapter's failures, once per node.
func (w *World) hookNode(node string) {
	if w.hooked[node] {
		return
	}
	h := w.fabric.HCA(node)
	if h == nil {
		return
	}
	w.hooked[node] = true
	h.OnFail(func() { w.breakLazyConns(node) })
}

// breakLazyConns marks every still-lazy connection touching the failed node
// as broken and wakes its dormant pump so it exits — the lazy counterpart of
// HCA.Fail breaking materialized QPs (which the fabric has already done when
// this hook runs). Walk order is ascending rank then ascending peer, so the
// wakeups are deterministic.
func (w *World) breakLazyConns(node string) {
	for _, r := range w.ranks {
		for _, c := range r.conns {
			if c == nil || c.qp != nil || c.broken || c.closed {
				continue
			}
			if r.node != node && w.ranks[c.peer].node != node {
				continue
			}
			c.broken = true
			c.pump.WakeDetached()
		}
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank i.
func (w *World) Rank(i int) *Rank { return w.ranks[i] }

// Ranks returns all ranks in rank order.
func (w *World) Ranks() []*Rank { return w.ranks }

// RanksOn returns the ranks currently placed on the given node, in rank
// order.
func (w *World) RanksOn(node string) []*Rank {
	var out []*Rank
	for _, r := range w.ranks {
		if r.node == node {
			out = append(out, r)
		}
	}
	return out
}

// Start builds the full connection mesh and launches app on every rank. The
// Ready event fires when the mesh is up, MeshCost after Start and
// immediately before rank 0 starts; Done fires when every rank's app
// function has returned.
//
// One launcher process connects the N(N-1)/2 pairs in ascending (i, j)
// order as a single SleepSeq, which the engine steps from wake to wake.
func (w *World) Start(app func(r *Rank)) {
	w.running = len(w.ranks)
	w.E.Spawn("mpi.launch", func(p *sim.Proc) {
		n := len(w.ranks)
		i, j := 0, 0
		p.SleepSeq(w.connectSeq(func() (a, b *Rank, ok bool) {
			if j++; j == n {
				i++
				j = i + 1
			}
			if j >= n {
				return nil, nil, false
			}
			return w.ranks[i], w.ranks[j], true
		}))
		w.ready.Fire()
		for _, r := range w.ranks {
			r := r
			w.E.Spawn(r.procName, func(rp *sim.Proc) {
				r.p = rp
				app(r)
				// A suspension requested as the app exits must still be
				// honoured so the coordinator is not left waiting.
				for r.suspendReq {
					r.doSuspend()
				}
				r.finished = true
				w.running--
				if w.running == 0 {
					w.done.Fire()
				}
			})
		}
	})
}

// SetFaultTolerant switches the runtime's reaction to send-path transport
// errors. Off (the default), a failed verbs call panics — the historical
// behaviour, correct while every fault arrives with the job globally
// suspended. On, sends are synchronous end to end (so a message lost on a
// breaking link surfaces as a sender-side error) and retry on a
// deterministic cadence, rebuilding the rank-pair connection when possible
// and honouring a pending suspension mid-retry so a recovery can restore
// the job under them. A message is abandoned (counted in FTDropped) only
// when its destination rank has already finished.
func (w *World) SetFaultTolerant(on bool) { w.ftMode = on }

// FTDropped returns the number of messages abandoned because their
// destination rank had already finished.
func (w *World) FTDropped() int64 { return w.ftDropped }

// hcaUp reports whether a node's adapter is attached and currently working.
func (w *World) hcaUp(node string) bool {
	h := w.fabric.HCA(node)
	return h != nil && !h.Failed()
}

// WaitReady blocks until the job is launched.
func (w *World) WaitReady(p *sim.Proc) { w.ready.Wait(p) }

// WaitDone blocks until all ranks have finished.
func (w *World) WaitDone(p *sim.Proc) { w.done.Wait(p) }

// Done reports whether all ranks have finished.
func (w *World) Done() bool { return w.done.Fired() }

// Rebind moves a rank to a new node (after its process image has been
// restarted there) and attaches the restored OS process. Must only be called
// while the world is suspended.
func (w *World) Rebind(rank int, node string, os *proc.Process) {
	r := w.ranks[rank]
	r.node = node
	w.hookNode(node)
	if os != nil {
		r.OS = os
	}
}

// BytesSent returns the total MPI payload bytes sent by all ranks.
func (w *World) BytesSent() int64 {
	var n int64
	for _, r := range w.ranks {
		n += r.BytesSent
	}
	return n
}

// pairCosts are the three sleeps connectSeq charges each rank pair, in its
// order: QP bring-up, then both rendezvous-buffer registrations.
func (w *World) pairCosts() [3]sim.Duration {
	reg := ib.MRRegisterCost(w.cfg.RendezvousBufSize)
	return [3]sim.Duration{calib.IBQPSetup, reg, reg}
}

// MeshCost returns how long Start's launch runs before Ready fires: the
// N(N-1)/2 rank pairs are connected one after another, each paying the
// pairCosts that connectSeq sleeps. A world started at t is Ready at exactly
// t + MeshCost, and no rank sends before then.
func (w *World) MeshCost() sim.Duration {
	c := w.pairCosts()
	n := sim.Duration(len(w.ranks))
	return n * (n - 1) / 2 * (c[0] + c[1] + c[2])
}

// connectSeq returns a SleepSeq step function that connects the rank pairs
// pairs yields, one after another. Each pair costs the three pairCosts
// sleeps the eager mesh paid, but the fabric state itself is created lazily
// on first use (see conn.materialize with the prepaid ib constructors). When
// the third sleep ends the pair gets its endpoints and each side's receive
// pump, spawned as a dormant flow so the process start/end trace records
// match the eager mesh exactly; pairs is then asked for the next pair at
// that same instant. The calling process pays the whole cost.
func (w *World) connectSeq(pairs func() (a, b *Rank, ok bool)) func() (sim.Duration, bool) {
	costs := w.pairCosts()
	var a, b *Rank
	stage := 0 // sleeps of the current pair already returned
	return func() (sim.Duration, bool) {
		if stage == len(costs) {
			w.connect(a, b)
			stage = 0
		}
		if stage == 0 {
			var ok bool
			if a, b, ok = pairs(); !ok {
				return 0, false
			}
		}
		stage++
		return costs[stage-1], true
	}
}

// connect gives a paid-for pair its (lazy) endpoints and receive pumps.
func (w *World) connect(a, b *Rank) {
	ca := &conn{r: a, peer: b.id}
	cb := &conn{r: b, peer: a.id}
	ca.buddy, cb.buddy = cb, ca
	if w.fabric.HCA(a.node).Failed() || w.fabric.HCA(b.node).Failed() {
		// An eager ConnectQP would have returned endpoints already broken;
		// the pumps below see the flag on their start step and exit at once.
		ca.broken, cb.broken = true, true
	}
	a.conns[b.id] = ca
	b.conns[a.id] = cb
	a.startPump(ca)
	b.startPump(cb)
}
