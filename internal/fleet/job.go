package fleet

import (
	"fmt"

	"ibmig/internal/sim"
)

// JobState is the coarse job lifecycle.
type JobState int

// Job states.
const (
	// JobQueued: submitted, waiting for placement.
	JobQueued JobState = iota
	// JobRunning: full lease, accumulating useful work.
	JobRunning
	// JobPaused: full lease, paying a migration or restart cost.
	JobPaused
	// JobSuspended: lost nodes with no replacement available; stalled.
	JobSuspended
	// JobDone: completed its work.
	JobDone
	// JobRejected: can never fit the fleet.
	JobRejected
)

func (s JobState) String() string {
	switch s {
	case JobQueued:
		return "queued"
	case JobRunning:
		return "running"
	case JobPaused:
		return "paused"
	case JobSuspended:
		return "suspended"
	case JobDone:
		return "done"
	case JobRejected:
		return "rejected"
	}
	return "unknown"
}

type pauseKind int

const (
	pauseMigrate pauseKind = iota
	pauseRestart
)

// Job is one width × work rectangle moving through the fleet. Progress uses
// checkpoint arithmetic rather than per-checkpoint events: a running segment
// of wall time d decomposes into whole (τ+δ) cycles plus a tail, giving
// durable work, checkpoint overhead, and the at-risk rework in O(1).
type Job struct {
	ID    int
	Spec  JobSpec
	State JobState
	Nodes []int // leased node ids

	// Done is the durable (checkpointed or migration-banked) useful work.
	Done sim.Duration
	// SegStart is when the current running segment began.
	SegStart sim.Time

	// epoch invalidates scheduled completion/resume callbacks: any
	// disruption bumps it, so a stale callback sees a mismatch and dies.
	epoch   int
	missing int // nodes lost and not yet replaced

	pauseKind    pauseKind
	pauseStart   sim.Time
	suspendStart sim.Time
	recovering   bool
	recoverStart sim.Time

	// Time buckets (wall-clock ns of the job, multiply by width for
	// node-time): useful work, checkpoint overhead, rework after failures,
	// migration pauses, restart pauses, suspension stalls.
	UsefulNS, CkptNS, ReworkNS, MigrNS, RestartNS, StallNS int64

	SubmitT, StartT, EndT sim.Time
	Reason                string // terminal disposition, "" while in flight
}

// Width returns the job's node requirement.
func (j *Job) Width() int { return j.Spec.Width }

// wallFor returns the wall time a segment of w useful work takes: w plus one
// checkpoint per completed interval, minus the final one when the job ends
// exactly at a boundary (done jobs need no last checkpoint).
func (s *System) wallFor(w sim.Duration) sim.Duration {
	tau, delta := ckptInterval, ckptCost
	if w <= 0 {
		return 0
	}
	return w + delta*((w-1)/tau)
}

// cycleSplit decomposes elapsed segment time d into k whole (τ+δ) cycles and
// a tail o ∈ [0, τ+δ).
func (s *System) cycleSplit(d int64) (k, o int64) {
	cycle := int64(ckptInterval + ckptCost)
	return d / cycle, d % cycle
}

// bank settles a running segment with migration semantics: everything done
// so far — including the tail past the last checkpoint — becomes durable,
// because live state moves with the process. No rework is charged.
func (s *System) bank(t sim.Time, job *Job) {
	if job.State != JobRunning {
		return
	}
	tau, delta := int64(ckptInterval), int64(ckptCost)
	k, o := s.cycleSplit(int64(t - job.SegStart))
	useful := k*tau + min64(o, tau)
	job.UsefulNS += useful
	job.CkptNS += k*delta + max64(0, o-tau)
	job.Done += sim.Duration(useful)
	job.epoch++
}

// chargePause adds the elapsed pause to its bucket and resets the pause
// clock, so repeated charging at one instant is idempotent.
func (j *Job) chargePause(t sim.Time) {
	elapsed := int64(t - j.pauseStart)
	if j.pauseKind == pauseMigrate {
		j.MigrNS += elapsed
	} else {
		j.RestartNS += elapsed
	}
	j.pauseStart = t
}

// pause stops the job for dur (a migration or restart cost) and schedules
// the epoch-guarded resume.
func (s *System) pause(t sim.Time, job *Job, kind pauseKind, dur sim.Time) {
	if job.State == JobPaused {
		job.chargePause(t) // settle the interrupted pause first
	}
	job.State = JobPaused
	job.pauseKind = kind
	job.pauseStart = t
	job.epoch++
	e := job.epoch
	s.E.At(t+dur, func() {
		if job.epoch == e {
			s.resume(s.E.Now(), job)
		}
	})
}

// resume puts a paused job back to work and schedules its epoch-guarded
// completion.
func (s *System) resume(t sim.Time, job *Job) {
	job.chargePause(t)
	if job.recovering {
		s.mttr = append(s.mttr, sim.Duration(t-job.recoverStart))
		job.recovering = false
	}
	remaining := job.Spec.Work - job.Done
	if remaining <= 0 {
		s.complete(t, job)
		return
	}
	job.State = JobRunning
	job.SegStart = t
	job.epoch++
	e := job.epoch
	s.E.At(t+sim.Time(s.wallFor(remaining)), func() {
		if job.epoch == e {
			s.complete(s.E.Now(), job)
		}
	})
}

// complete finishes the job: the final segment's work and checkpoints are
// charged, every node is released, and the freed capacity is re-served.
func (s *System) complete(t sim.Time, job *Job) {
	tau, delta := ckptInterval, ckptCost
	if rem := job.Spec.Work - job.Done; rem > 0 {
		job.UsefulNS += int64(rem)
		job.CkptNS += int64(delta * ((rem - 1) / tau))
		job.Done = job.Spec.Work
	}
	for _, id := range append([]int(nil), job.Nodes...) {
		s.release(t, job, s.Nodes[id])
	}
	job.State = JobDone
	job.EndT = t
	job.Reason = "completed"
	job.epoch++
	s.serveNodes(t)
}

// submit enqueues a freshly arrived job (or rejects one that can never fit).
func (s *System) submit(js JobSpec) {
	t := s.E.Now()
	job := &Job{ID: js.ID, Spec: js, State: JobQueued, SubmitT: t, StartT: -1, EndT: -1}
	s.Jobs = append(s.Jobs, job)
	if js.Width > s.Cfg.Nodes-minSpares {
		job.State = JobRejected
		job.Reason = "too-wide"
		job.EndT = t
		return
	}
	s.queue = append(s.queue, job)
	s.trySchedule(t)
}

// jobInterrupt handles one leased node's unpredicted death (the dead node is
// already released). Running segments pay failure semantics: durable work up
// to the last checkpoint survives, the tail is rework. The job then either
// restarts on a replacement or suspends until one exists.
func (s *System) jobInterrupt(t sim.Time, job *Job) {
	switch job.State {
	case JobQueued, JobDone, JobRejected:
		panic(fmt.Sprintf("fleet: interrupt on %s job %d", job.State, job.ID))
	}
	s.Interrupts++
	if !job.recovering {
		job.recovering = true
		job.recoverStart = t
	}
	job.missing++
	switch job.State {
	case JobRunning:
		tau, delta := int64(ckptInterval), int64(ckptCost)
		k, o := s.cycleSplit(int64(t - job.SegStart))
		job.UsefulNS += k * tau
		job.CkptNS += k*delta + max64(0, o-tau)
		job.ReworkNS += min64(o, tau)
		job.Done += sim.Duration(k * tau)
		job.epoch++
	case JobPaused:
		job.chargePause(t)
		job.epoch++
	case JobSuspended:
		return // already stalled; serveNodes will refill when supply appears
	}
	s.refill(t, job)
	if job.missing == 0 {
		s.pause(t, job, pauseRestart, sim.Time(restartCost))
	} else {
		job.State = JobSuspended
		job.suspendStart = t
		s.waiting = append(s.waiting, job)
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
