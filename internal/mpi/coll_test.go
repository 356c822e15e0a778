package mpi

import (
	"testing"
	"time"

	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// TestCollectivesSurviveSuspension runs the collectives the NPB kernels use
// (Barrier, Bcast and Allreduce) across a suspend/drain/rebuild/resume
// cycle: every rank must finish every round, and each round's broadcast and
// allreduce must deliver the root's payload to every rank.
func TestCollectivesSurviveSuspension(t *testing.T) {
	const rounds = 12
	e, _, w := newTestWorld(4, 8)
	counts := make([]int, 8)
	bcast := make([][]payload.Buffer, rounds)
	allred := make([][]payload.Buffer, rounds)
	for i := range bcast {
		bcast[i] = make([]payload.Buffer, 8)
		allred[i] = make([]payload.Buffer, 8)
	}
	w.Start(func(r *Rank) {
		for it := 0; it < rounds; it++ {
			r.Compute(2 * time.Millisecond)
			r.Barrier()
			bcast[it][r.ID()] = r.Bcast(it%8, 4096)
			allred[it][r.ID()] = r.Allreduce(512)
			counts[r.ID()]++
		}
	})
	e.Spawn("coordinator", func(p *sim.Proc) {
		w.WaitReady(p)
		p.Sleep(10 * time.Millisecond)
		s := w.BeginSuspend()
		s.WaitAllDrained(p)
		s.CompleteTeardown()
		s.WaitAllSuspended(p)
		s.Resume()
		s.WaitAllResumed(p)
		w.WaitDone(p)
		e.Stop()
	})
	run(t, e)
	for i, n := range counts {
		if n != rounds {
			t.Fatalf("rank %d completed %d/%d collective rounds", i, n, rounds)
		}
	}
	for it := 0; it < rounds; it++ {
		for id := 0; id < 8; id++ {
			if got := bcast[it][id]; got.Size() != 4096 || !got.Equal(bcast[it][it%8]) {
				t.Fatalf("round %d: rank %d's Bcast differs from root %d's", it, id, it%8)
			}
			if got := allred[it][id]; got.Size() != 512 || !got.Equal(allred[it][0]) {
				t.Fatalf("round %d: rank %d's Allreduce differs from rank 0's", it, id)
			}
		}
	}
}
