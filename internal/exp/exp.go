// Package exp contains the experiment harness that regenerates every table
// and figure of the paper's evaluation (section IV): migration overhead
// decomposition (Fig. 4), application overhead (Fig. 5), scalability with
// processes per node (Fig. 6), migration vs Checkpoint/Restart (Fig. 7),
// data-movement volumes (Table I), and the ablations the paper discusses in
// text (buffer-pool sizing, memory-based restart, socket staging).
//
// Each experiment builds a fresh deterministic simulation; the same Scale and
// seed always reproduce identical numbers.
package exp

import (
	"ibmig/internal/cluster"
	"ibmig/internal/core"
	"ibmig/internal/cr"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
)

// Scale sets the experiment size. PaperScale is the testbed of the paper;
// QuickScale is a reduced smoke-test size for CI and examples.
type Scale struct {
	Class npb.Class
	Ranks int
	PPN   int
	Seed  int64
}

// PaperScale reproduces the paper: class C, 64 processes, 8 per node.
var PaperScale = Scale{Class: npb.ClassC, Ranks: 64, PPN: 8, Seed: 1}

// QuickScale is a fast reduced configuration (class W, 16 processes on 8
// nodes) that preserves every qualitative shape.
var QuickScale = Scale{Class: npb.ClassW, Ranks: 16, PPN: 2, Seed: 1}

// session is one launched job plus its driving engine.
type session struct {
	e   *sim.Engine
	c   *cluster.Cluster
	fw  *core.Framework
	res *npb.Result
	w   npb.Workload
}

// newSession launches a job. pvfsServers > 0 also provisions PVFS.
func newSession(k npb.Kernel, sc Scale, ranks, ppn, spares, pvfsServers int, opts core.Options) *session {
	e := sim.NewEngine(sc.Seed)
	c := cluster.New(e, cluster.Config{
		ComputeNodes: ranks / ppn,
		SpareNodes:   spares,
		PVFSServers:  pvfsServers,
	})
	w := npb.New(k, sc.Class, ranks)
	res := npb.NewResult(ranks)
	fw := core.Launch(c, w, ppn, res, opts)
	return &session{e: e, c: c, fw: fw, res: res, w: w}
}

// drive runs fn as the experiment controller and executes the simulation to
// completion.
func (s *session) drive(fn func(p *sim.Proc)) {
	s.e.Spawn("exp.ctl", func(p *sim.Proc) {
		s.fw.W.WaitReady(p)
		fn(p)
		s.e.Stop()
	})
	if err := s.e.Run(); err != nil {
		panic("exp: " + err.Error())
	}
	s.e.Shutdown()
}

// triggerAt returns the default migration trigger time: a third into the
// run, when the job is in steady state.
func (s *session) triggerAt() sim.Duration {
	return s.w.EstimatedRuntime() / 3
}

// midNode returns the default migration source.
func (s *session) midNode() string {
	return s.c.Compute[len(s.c.Compute)/2].Name
}

// MigrationSpec configures one migration experiment.
type MigrationSpec struct {
	Kernel npb.Kernel
	Scale  Scale
	Opts   core.Options
	// ToCompletion runs the application to the end and reports its duration.
	ToCompletion bool
	// Observe attaches an obs collector to the engine. Spans, metrics and
	// device-utilization tracks are gathered while the virtual timeline stays
	// bit-identical to the unobserved run: the collector only reads the clock.
	Observe bool
	// StreamRing > 0 also subscribes a live sink with a ring of that capacity
	// (implies Observe). It is drained on a separate goroutine while the
	// engine runs — the deployment shape of cmd/obsserve, condensed for tests
	// and benchmarks. Publication is host-side work and never touches the
	// event queue, so the timeline stays bit-identical here too.
	StreamRing int
}

// MigrationOutcome is the result of one migration experiment.
type MigrationOutcome struct {
	Workload    npb.Workload
	Report      *metrics.Report
	AppDuration sim.Duration // end-to-end app time (ToCompletion only)
	Events      uint64       // kernel events dispatched (simulator telemetry)
	Resumes     uint64       // coroutine resumes among them (sim.Engine.Resumes)
	// Collector is the finished collector (open spans closed, usage tracks
	// integrated to the final time) when the spec asked to observe.
	Collector *obs.Collector
	Stream    StreamStats // what the live sink saw (StreamRing > 0 only)
}

// StreamStats summarizes what a live sink saw during a streamed run.
type StreamStats struct {
	Events  uint64 // events delivered to (and drained from) the subscriber
	Dropped uint64 // events lost to ring overflow
}

// RunMigration triggers one migration mid-run and returns its phase report.
func RunMigration(spec MigrationSpec) MigrationOutcome {
	sc := spec.Scale
	s := newSession(spec.Kernel, sc, sc.Ranks, sc.PPN, 1, 0, spec.Opts)
	out := MigrationOutcome{Workload: s.w}
	if spec.Observe || spec.StreamRing > 0 {
		out.Collector = obs.Enable(s.e)
	}
	var sub *obs.Subscriber
	var streamed uint64
	var drained chan struct{}
	if spec.StreamRing > 0 {
		sub = out.Collector.Subscribe(spec.StreamRing)
		drained = make(chan struct{})
		go func() {
			defer close(drained)
			buf := make([]obs.Event, 0, 256)
			for {
				buf = sub.Drain(buf[:0])
				streamed += uint64(len(buf))
				if len(buf) == 0 {
					if sub.Closed() {
						return
					}
					<-sub.Notify()
				}
			}
		}()
	}
	s.drive(func(p *sim.Proc) {
		start := p.Now()
		p.Sleep(s.triggerAt())
		s.fw.TriggerMigration(p, s.midNode()).Wait(p)
		if spec.ToCompletion {
			s.fw.W.WaitDone(p)
			out.AppDuration = p.Now().Sub(start)
		}
	})
	if len(s.fw.Reports) > 0 {
		out.Report = s.fw.Reports[len(s.fw.Reports)-1]
	}
	out.Events, out.Resumes = s.e.Events(), s.e.Resumes()
	out.Collector.Finish(s.e.Now())
	if sub != nil {
		out.Collector.Unsubscribe(sub)
		<-drained
		out.Stream = StreamStats{Events: streamed, Dropped: sub.Dropped()}
	}
	return out
}

// RunBaseline runs the application with no migration and returns its
// duration.
func RunBaseline(k npb.Kernel, sc Scale) sim.Duration {
	s := newSession(k, sc, sc.Ranks, sc.PPN, 1, 0, core.Options{})
	var d sim.Duration
	s.drive(func(p *sim.Proc) {
		start := p.Now()
		s.fw.W.WaitDone(p)
		d = p.Now().Sub(start)
	})
	return d
}

// RunComparison runs, against a single live job, one migration followed by a
// full CR cycle to local ext3 and a full CR cycle to PVFS — the three stacks
// of Fig. 7 — and returns their reports.
func RunComparison(k npb.Kernel, sc Scale, opts core.Options) (mig, crExt3, crPVFS *metrics.Report, w npb.Workload) {
	s := newSession(k, sc, sc.Ranks, sc.PPN, 1, 4, opts)
	s.drive(func(p *sim.Proc) {
		p.Sleep(s.triggerAt())
		s.fw.TriggerMigration(p, s.midNode()).Wait(p)
		crExt3 = cr.NewRunner(s.c, s.fw.W, cr.Ext3, opts.Hash).FullCycle(p)
		crPVFS = cr.NewRunner(s.c, s.fw.W, cr.PVFS, opts.Hash).FullCycle(p)
	})
	if len(s.fw.Reports) > 0 {
		mig = s.fw.Reports[len(s.fw.Reports)-1]
	}
	return mig, crExt3, crPVFS, s.w
}
