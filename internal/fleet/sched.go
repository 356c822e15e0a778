package fleet

import (
	"sort"

	"ibmig/internal/sim"
)

// trySchedule walks the job queue against the free active nodes. FIFO stops
// at the first head that does not fit; EASY backfill additionally lets later
// jobs jump the head when they fit now and either finish before the head's
// shadow time (the earliest instant it could start) or use only nodes the
// head will not need then.
func (s *System) trySchedule(t sim.Time) {
	free := s.freeNodes()
	// Place FIFO heads while they fit.
	for len(s.queue) > 0 && len(free) >= s.queue[0].Width() {
		job := s.queue[0]
		s.queue = s.queue[1:]
		free = s.place(t, job, free)
	}
	if len(s.queue) == 0 || s.Cfg.Policy != PolicyBackfill || len(free) == 0 {
		return
	}
	shadow, extra := s.shadow(t, s.queue[0].Width(), len(free))
	kept := s.queue[:1]
	for _, job := range s.queue[1:] {
		w := job.Width()
		if w <= len(free) && (t+sim.Time(s.wallFor(job.Spec.Work-job.Done))+sim.Time(restartCost) <= shadow || w <= extra) {
			if w <= extra {
				extra -= w
			}
			free = s.place(t, job, free)
			continue
		}
		kept = append(kept, job)
	}
	s.queue = kept
}

// freeNodes returns the schedulable (active, unleased) node ids, ascending.
func (s *System) freeNodes() []int {
	var out []int
	for _, n := range s.Nodes {
		if n.State == StateActive && n.Job == nil {
			out = append(out, n.ID)
		}
	}
	return out
}

// estEnd estimates when a leased job's nodes come back: a running segment
// ends on schedule; paused or suspended jobs are charged a restart on top of
// their remaining work (optimistic for suspended jobs, but the estimate only
// steers backfill — correctness never depends on it).
func (s *System) estEnd(t sim.Time, job *Job) sim.Time {
	rem := sim.Time(s.wallFor(job.Spec.Work - job.Done))
	if job.State == JobRunning {
		return job.SegStart + rem
	}
	return t + sim.Time(restartCost) + rem
}

// shadow computes the EASY reservation for a head job of the given width:
// the estimated instant enough nodes have been released (the shadow time),
// and how many free nodes exceed the head's need at that instant (available
// for width-bounded backfill).
func (s *System) shadow(t sim.Time, width, free int) (sim.Time, int) {
	type rel struct {
		at sim.Time
		n  int
	}
	var rels []rel
	for _, job := range s.Jobs {
		if len(job.Nodes) > 0 && job.State != JobDone {
			rels = append(rels, rel{s.estEnd(t, job), len(job.Nodes)})
		}
	}
	sort.Slice(rels, func(i, j int) bool { return rels[i].at < rels[j].at })
	avail := free
	for _, r := range rels {
		if avail >= width {
			break
		}
		avail += r.n
		t = r.at
	}
	if avail < width {
		return sim.Time(s.Cfg.Horizon), 0 // never by the horizon: no reservation binds
	}
	return t, avail - width
}

// place leases width nodes to the job with rack-aware packing — racks with
// the most free nodes first (fewer rack fragments per job, so one rack
// failure hits fewer jobs), ascending ids within a rack — and starts it.
func (s *System) place(t sim.Time, job *Job, free []int) []int {
	byRack := map[int][]int{}
	var rackIDs []int
	for _, id := range free {
		r := s.Nodes[id].Rack
		if _, ok := byRack[r]; !ok {
			rackIDs = append(rackIDs, r)
		}
		byRack[r] = append(byRack[r], id)
	}
	sort.Slice(rackIDs, func(i, j int) bool {
		a, b := rackIDs[i], rackIDs[j]
		if len(byRack[a]) != len(byRack[b]) {
			return len(byRack[a]) > len(byRack[b])
		}
		return a < b
	})
	picked := make([]int, 0, job.Width())
	for _, r := range rackIDs {
		for _, id := range byRack[r] {
			if len(picked) == job.Width() {
				break
			}
			picked = append(picked, id)
		}
	}
	taken := make(map[int]bool, len(picked))
	for _, id := range picked {
		taken[id] = true
		s.acquire(t, job, s.Nodes[id])
	}
	job.StartT = t
	job.State = JobRunning
	job.SegStart = t
	job.epoch++
	e := job.epoch
	s.E.At(t+sim.Time(s.wallFor(job.Spec.Work)), func() {
		if job.epoch == e {
			s.complete(s.E.Now(), job)
		}
	})
	rest := free[:0]
	for _, id := range free {
		if !taken[id] {
			rest = append(rest, id)
		}
	}
	return rest
}
