package check

import (
	"fmt"
	"strings"

	"ibmig/internal/cluster"
	"ibmig/internal/core"
	"ibmig/internal/fault"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
)

// Violation is one invariant breach, stamped with the sim time it was
// detected at, the obs spans open at that instant (the protocol context:
// which attempt, which phase, which rank operations were in flight), and the
// flight recorder's tail (the telemetry leading up to the breach).
type Violation struct {
	Invariant string   `json:"invariant"`
	Detail    string   `json:"detail"`
	T         sim.Time `json:"t_ns"`
	Spans     []string `json:"spans,omitempty"`
	Flight    []string `json:"flight,omitempty"`
}

func (v Violation) String() string {
	s := fmt.Sprintf("%s: %s (t=%.3fms)", v.Invariant, v.Detail, v.T.Milliseconds())
	if len(v.Spans) > 0 {
		s += " in " + strings.Join(v.Spans, ", ")
	}
	return s
}

// probe is everything one scenario run exposes to the invariants: the live
// framework and cluster, the injector's applied-fault log, the clock watch,
// the phase-entry log, and the driver's terminal state.
type probe struct {
	sc  Scenario
	fw  *core.Framework
	c   *cluster.Cluster
	jm  *core.JobManager
	col *obs.Collector
	fr  *obs.FlightRecorder
	inj *fault.Injector

	clock  clockWatch
	phases []phaseEntry

	trigFired bool // the migration trigger's completion event fired
	appDone   bool // the application ran to completion
	ctlDone   bool // the driver finished (liveness)
	ckptErr   error
	runErr    error
	endT      sim.Time
}

type phaseEntry struct {
	T          sim.Time
	Seq, Phase int
}

// clockWatch is a sim.Tracer evaluated at every event boundary: it checks
// that virtual time never runs backwards — the kernel guarantee schedule
// perturbation must preserve.
type clockWatch struct {
	last       sim.Time
	violations []Violation
}

func (w *clockWatch) Trace(t sim.Time, kind, who, detail string) {
	if t < w.last && len(w.violations) < 8 {
		w.violations = append(w.violations, Violation{
			Invariant: "clock-monotonic",
			Detail:    fmt.Sprintf("time ran backwards: %v -> %v at %s %s", w.last, t, kind, who),
			T:         t,
		})
	}
	if t > w.last {
		w.last = t
	}
}

// destructive reports whether the scenario injects any fault that can
// legitimately cost the job (node/HCA/disk loss, or a dropped protocol
// event — a dropped FTB_MIGRATE_PIIC is indistinguishable from a vacated
// source, so the JM must fall back).
func (sc Scenario) destructive() bool {
	for _, f := range sc.Faults {
		if f.Kind != fault.FTBDelay {
			return true
		}
	}
	return false
}

// Invariant is one registered protocol property.
type Invariant struct {
	Name  string
	Desc  string
	Check func(pr *probe) []Violation
}

func one(name string, t sim.Time, format string, args ...any) []Violation {
	return []Violation{{Invariant: name, Detail: fmt.Sprintf(format, args...), T: t}}
}

// Registry returns every registered invariant, in evaluation order.
func Registry() []Invariant {
	return []Invariant{
		{
			Name: "liveness",
			Desc: "the driver terminates: the trigger completes, and unless the job is lost the application finishes",
			Check: func(pr *probe) (vs []Violation) {
				if pr.runErr != nil {
					vs = append(vs, one("liveness", pr.endT, "engine error: %v", pr.runErr)...)
				}
				if !pr.trigFired {
					vs = append(vs, one("liveness", pr.endT, "migration trigger never completed")...)
				} else if !pr.ctlDone {
					vs = append(vs, one("liveness", pr.endT, "application hung after migration completed")...)
				}
				// A destructive fault may race the driver's pre-trigger
				// checkpoint (absolute anchors land anywhere), and the
				// framework legitimately refuses a checkpoint while a
				// recovery owns the suspension — only a clean scenario
				// makes a failed checkpoint a violation.
				if pr.ckptErr != nil && !pr.sc.destructive() {
					vs = append(vs, one("liveness", pr.endT, "checkpoint failed: %v", pr.ckptErr)...)
				}
				return vs
			},
		},
		{
			Name: "clock-monotonic",
			Desc: "virtual time never runs backwards at any event boundary",
			Check: func(pr *probe) []Violation {
				return pr.clock.violations
			},
		},
		{
			Name: "phase-order",
			Desc: "each attempt enters phases in strictly increasing order",
			Check: func(pr *probe) (vs []Violation) {
				last := map[int]int{}
				for _, pe := range pr.phases {
					if prev, seen := last[pe.Seq]; seen && pe.Phase <= prev {
						vs = append(vs, one("phase-order", pe.T,
							"attempt #%d entered phase %d after phase %d", pe.Seq, pe.Phase, prev)...)
					}
					last[pe.Seq] = pe.Phase
				}
				return vs
			},
		},
		{
			Name: "attempt-terminal",
			Desc: "every started attempt reaches exactly one terminal record",
			Check: func(pr *probe) (vs []Violation) {
				seen := map[int]int{}
				maxSeq := 0
				for _, pe := range pr.phases {
					if pe.Seq > maxSeq {
						maxSeq = pe.Seq
					}
				}
				for _, a := range pr.fw.Attempts {
					seen[a.Seq]++
				}
				for seq := 1; seq <= maxSeq; seq++ {
					if n := seen[seq]; n != 1 {
						vs = append(vs, one("attempt-terminal", pr.endT,
							"attempt #%d has %d terminal records, want 1", seq, n)...)
					}
				}
				return vs
			},
		},
		{
			Name: "abort-xor-complete",
			Desc: "no attempt is both aborted and completed, or neither",
			Check: func(pr *probe) (vs []Violation) {
				for _, a := range pr.fw.Attempts {
					if a.Aborted == a.Completed {
						vs = append(vs, one("abort-xor-complete", pr.endT,
							"attempt #%d: aborted=%v completed=%v", a.Seq, a.Aborted, a.Completed)...)
					}
				}
				return vs
			},
		},
		{
			Name: "ranks-intact",
			Desc: "no rank is lost or duplicated, and no rank lives on a dead node or a vacated source",
			Check: func(pr *probe) (vs []Violation) {
				ids := map[int]int{}
				for _, r := range pr.fw.W.Ranks() {
					ids[r.ID()]++
					if !pr.jm.JobLost() && !pr.c.NodeAlive(r.Node()) {
						vs = append(vs, one("ranks-intact", pr.endT,
							"rank %d placed on dead node %s", r.ID(), r.Node())...)
					}
				}
				for id := 0; id < pr.sc.Ranks; id++ {
					if ids[id] != 1 {
						vs = append(vs, one("ranks-intact", pr.endT,
							"rank %d appears %d times, want 1", id, ids[id])...)
					}
				}
				for _, a := range pr.fw.Attempts {
					if a.Completed && a.SrcVacated {
						if n := len(pr.fw.W.RanksOn(a.Src)); n != 0 {
							vs = append(vs, one("ranks-intact", pr.endT,
								"attempt #%d completed but %d ranks remain on vacated source %s", a.Seq, n, a.Src)...)
						}
					}
				}
				return vs
			},
		},
		{
			Name: "image-identity",
			Desc: "restored process images are checksum-identical across checkpoint, RDMA transfer and restart",
			Check: func(pr *probe) (vs []Violation) {
				if pr.jm.JobLost() || len(pr.fw.Attempts) == 0 {
					return nil
				}
				if !pr.fw.LastVerified() {
					vs = append(vs, one("image-identity", pr.endT,
						"restored images failed checksum verification")...)
				}
				return vs
			},
		},
		{
			Name: "pool-balanced",
			Desc: "every aggregation-pool buffer is back on the free list when the transfer completes",
			Check: func(pr *probe) (vs []Violation) {
				for _, a := range pr.fw.Attempts {
					if a.PoolOutstanding > 0 {
						vs = append(vs, one("pool-balanced", pr.endT,
							"attempt #%d leaked %d pool chunks", a.Seq, a.PoolOutstanding)...)
					}
					if a.Completed && a.PoolOutstanding < 0 {
						vs = append(vs, one("pool-balanced", pr.endT,
							"attempt #%d completed without reaching the pool-balance probe", a.Seq)...)
					}
				}
				return vs
			},
		},
		{
			Name: "counters-consistent",
			Desc: "JM counters agree with the attempt records and the obs span log",
			Check: func(pr *probe) (vs []Violation) {
				completed, aborted, resends := 0, 0, 0
				for _, a := range pr.fw.Attempts {
					if a.Completed {
						completed++
					}
					if a.Aborted {
						aborted++
					}
					resends += a.RestartResends
				}
				if pr.jm.MigrationsDone != completed {
					vs = append(vs, one("counters-consistent", pr.endT,
						"MigrationsDone=%d but %d completed attempts", pr.jm.MigrationsDone, completed)...)
				}
				if pr.jm.MigrationsAborted != aborted {
					vs = append(vs, one("counters-consistent", pr.endT,
						"MigrationsAborted=%d but %d aborted attempts", pr.jm.MigrationsAborted, aborted)...)
				}
				if pr.jm.RestartResends != resends {
					vs = append(vs, one("counters-consistent", pr.endT,
						"RestartResends=%d but attempts sum to %d", pr.jm.RestartResends, resends)...)
				}
				if n := len(pr.fw.Attempts); n > 0 && pr.jm.SpareRetries != n-1 {
					vs = append(vs, one("counters-consistent", pr.endT,
						"SpareRetries=%d but %d attempts for one trigger", pr.jm.SpareRetries, n)...)
				}
				spans := 0
				for _, s := range pr.col.Spans() {
					if s.Parent == 0 && s.Actor == "jm" && strings.HasPrefix(s.Name, "migration#") {
						spans++
					}
				}
				if spans != len(pr.fw.Attempts) {
					vs = append(vs, one("counters-consistent", pr.endT,
						"%d root migration spans but %d attempt records", spans, len(pr.fw.Attempts))...)
				}
				return vs
			},
		},
		{
			Name: "job-loss-legitimate",
			Desc: "the job is only ever lost to an injected destructive fault, never spontaneously",
			Check: func(pr *probe) (vs []Violation) {
				if pr.jm.JobLost() && !pr.sc.destructive() {
					vs = append(vs, one("job-loss-legitimate", pr.endT,
						"job lost with no destructive fault injected (faults: %v)", pr.sc.Faults)...)
				}
				return vs
			},
		},
	}
}
