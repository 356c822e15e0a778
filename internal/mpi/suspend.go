package mpi

import (
	"ibmig/internal/calib"
	"ibmig/internal/sim"
)

// Suspension is one coordinated suspend/resume cycle across the world — the
// machinery behind the paper's Phase 1 (Job Stall) and Phase 4 (Resume). The
// coordinator (the migration framework's Job Manager, or the CR framework)
// drives it:
//
//	s := w.BeginSuspend()       // ranks stop at the next MPI call boundary
//	s.WaitAllDrained(p)         // no in-flight messages remain anywhere
//	s.CompleteTeardown()        // revoke cached rkeys, close endpoints
//	s.WaitAllSuspended(p)       // globally consistent state reached
//	... checkpoint / migrate ...
//	s.Resume()                  // rebuild endpoints, PMI re-exchange
//	s.WaitAllResumed(p)         // application is running again
type Suspension struct {
	w           *World
	teardownCmd *sim.Event
	resumeCmd   *sim.Event
	rebuildWG   *sim.WaitGroup
	cycles      []*suspendCycle
}

// suspendCycle is one rank's view of a Suspension.
type suspendCycle struct {
	sus       *Suspension
	drained   *sim.Event
	suspended *sim.Event
	resumed   *sim.Event
}

// BeginSuspend asks every active rank to suspend at its next MPI call
// boundary (compute loops poll at slice granularity; blocked receives are
// interrupted by a control message, the C/R-thread mechanism in MVAPICH2).
func (w *World) BeginSuspend() *Suspension {
	s := &Suspension{
		w:           w,
		teardownCmd: sim.NewEvent(w.E),
		resumeCmd:   sim.NewEvent(w.E),
		rebuildWG:   sim.NewWaitGroup(w.E),
	}
	for _, r := range w.ranks {
		if r.finished {
			continue
		}
		if r.cycle != nil {
			panic("mpi: overlapping suspensions")
		}
		cy := &suspendCycle{
			sus:       s,
			drained:   sim.NewEvent(w.E),
			suspended: sim.NewEvent(w.E),
			resumed:   sim.NewEvent(w.E),
		}
		r.cycle = cy
		r.suspendReq = true
		r.mailbox.TrySend(inMsg{ctl: ctlSuspend})
		s.cycles = append(s.cycles, cy)
	}
	s.rebuildWG.Add(len(s.cycles))
	return s
}

// WaitAllDrained blocks until every rank has flushed its in-flight traffic
// and paused (end of the drain step of Phase 1).
func (s *Suspension) WaitAllDrained(p *sim.Proc) {
	for _, c := range s.cycles {
		c.drained.Wait(p)
	}
}

// CompleteTeardown lets the drained ranks tear down their communication
// endpoints.
func (s *Suspension) CompleteTeardown() { s.teardownCmd.Fire() }

// WaitAllSuspended blocks until every rank has released its endpoints — the
// globally consistent state in which processes may be checkpointed.
func (s *Suspension) WaitAllSuspended(p *sim.Proc) {
	for _, c := range s.cycles {
		c.suspended.Wait(p)
	}
}

// Resume lets ranks rebuild endpoints and continue execution.
func (s *Suspension) Resume() { s.resumeCmd.Fire() }

// WaitAllResumed blocks until every rank is running again (end of Phase 4).
func (s *Suspension) WaitAllResumed(p *sim.Proc) {
	for _, c := range s.cycles {
		c.resumed.Wait(p)
	}
}

// doSuspend executes the rank-local side of the suspension protocol. It is
// invoked at MPI call boundaries (poll) or from a blocked receive when the
// control message arrives. Its three per-connection loops — drain, teardown
// and rebuild — each run as a SleepSeq: every rank sleeps once per peer, and
// with all ranks in lockstep nearly every one of those wakes would otherwise
// be a switch into a different coroutine.
func (r *Rank) doSuspend() {
	cy := r.cycle
	if cy == nil {
		r.suspendReq = false
		return
	}
	r.Suspensions++
	// Let helper operations (Sendrecv children) finish: their wire work is
	// part of the in-flight state being drained.
	r.opsIdle.Wait(r.p)

	// Drain: one flush-marker round per connection, then wait until the
	// endpoint has nothing on the wire. Peers are visited in ascending order
	// (the slice index); a still-lazy pair has nothing in flight by
	// construction, matching an eager endpoint whose idle gate is open —
	// neither schedules an event. The rounds run as one SleepSeq, which is
	// left only when the endpoint just flushed is still busy: the rank waits
	// for it here and re-enters.
	k := 0
	var cur *conn // the connection whose flush round is under way
	drain := func() (sim.Duration, bool) {
		if cur != nil && cur.qp != nil && !cur.qp.Idle() {
			return 0, false
		}
		if cur = r.nextConn(&k); cur == nil {
			return 0, false
		}
		return calib.DrainRoundCost, true
	}
	for r.p.SleepSeq(drain); cur != nil; r.p.SleepSeq(drain) {
		cur.qp.WaitIdle(r.p)
	}
	cy.drained.Fire()
	cy.sus.teardownCmd.Wait(r.p)

	// Teardown: revoke the pinned buffer (invalidating the remote key the
	// peer cached — InfiniBand state that must not survive a checkpoint) and
	// close the endpoint, one connection per step.
	k = 0
	r.p.SleepSeq(func() (sim.Duration, bool) {
		c := r.nextConn(&k)
		if c == nil {
			return 0, false
		}
		c.destroy()
		r.conns[c.peer] = nil
		return calib.TeardownPerConn, true
	})
	cy.suspended.Fire()
	cy.sus.resumeCmd.Wait(r.p)

	// Rebuild: the lower rank of each pair re-establishes the connection
	// (QPs, pinned buffers, fresh remote keys) from the ranks' *current*
	// nodes — a migrated rank reconnects from its new home.
	k = r.id
	r.p.SleepSeq(r.w.connectSeq(func() (a, b *Rank, ok bool) {
		for k++; k < len(r.w.ranks); k++ {
			if other := r.w.ranks[k]; !other.finished {
				return r, other, true
			}
		}
		return nil, nil, false
	}))
	// Endpoint information is re-exchanged through the central job-launch
	// coordinator, which serializes the per-rank updates.
	r.w.pmi.Hold(r.p, 1, r.w.cfg.PMIExchangePerRank)
	cy.sus.rebuildWG.Done()
	cy.sus.rebuildWG.Wait(r.p)
	r.p.Sleep(calib.MigrationBarrierCost)

	r.suspendReq = false
	r.cycle = nil
	cy.resumed.Fire()
}

// nextConn returns the first connection at or after index *k and moves *k
// past it, or returns nil when none is left.
func (r *Rank) nextConn(k *int) *conn {
	for ; *k < len(r.conns); *k++ {
		if c := r.conns[*k]; c != nil {
			*k++
			return c
		}
	}
	return nil
}
