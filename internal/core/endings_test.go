package core

import (
	"fmt"
	"testing"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/cr"
	"ibmig/internal/fault"
	"ibmig/internal/ftb"
	"ibmig/internal/health"
	"ibmig/internal/npb"
	"ibmig/internal/sim"
	"ibmig/internal/strategy"
)

// Recovery-ending pins. Each case drives one class S run into one way a
// migration trigger or a node death can end, and pins the full event trace
// (record count and sim.Recorder fingerprint) the way TestGoldenTraceUnchanged
// pins the clean migration. A refactor of the Job Manager's recovery code
// that keeps every case here keeps what the engine simulates on every path.
// If an intentional semantic change moves a pin, re-record it in the same
// commit and say why.

// endingRig is one pinned run: the cluster shape, the framework options, and
// the faults and triggers a driver applies once the job is up.
type endingRig struct {
	spares, pvfs int
	opts         Options
	// faults binds phase-anchored faults before the run starts (may be nil).
	faults func(inj *fault.Injector)
	// drive runs in the control process after WaitReady and before the
	// driver waits for the job to finish or be lost.
	drive func(t *testing.T, p *sim.Proc, c *cluster.Cluster, fw *Framework)
}

// runEnding executes the rig on LU class S, 8 ranks on 4 nodes, and returns
// the trace recorder and the framework for inspection.
func runEnding(t *testing.T, rig endingRig) (*sim.Recorder, *Framework) {
	t.Helper()
	e := sim.NewEngine(17)
	rec := &sim.Recorder{}
	e.SetTracer(rec)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: rig.spares, PVFSServers: rig.pvfs})
	w := npb.New(npb.LU, npb.ClassS, 8)
	fw := Launch(c, w, 2, npb.NewResult(w.Ranks), rig.opts)
	if rig.faults != nil {
		inj := fault.NewInjector(c)
		inj.Bind(fw)
		rig.faults(inj)
	}
	e.Spawn("test.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		rig.drive(t, p, c, fw)
		for !fw.W.Done() && !fw.jm.JobLost() {
			p.Sleep(time.Millisecond)
		}
		e.Stop()
	})
	if err := e.RunUntil(sim.Time(60 * time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	return rec, fw
}

// checkpointThenMigrate takes a PVFS checkpoint, then migrates node02.
func checkpointThenMigrate(t *testing.T, p *sim.Proc, _ *cluster.Cluster, fw *Framework) {
	if _, err := fw.Checkpoint(p, cr.PVFS); err != nil {
		t.Error(err)
	}
	migrateNode02(t, p, nil, fw)
}

// migrateNode02 migrates node02 and waits for the trigger to complete.
func migrateNode02(_ *testing.T, p *sim.Proc, _ *cluster.Cluster, fw *Framework) {
	p.Sleep(10 * time.Millisecond)
	fw.TriggerMigration(p, "node02").Wait(p)
}

// killNode03 lets the job run half its estimated runtime, then crashes
// node03 outside any migration.
func killNode03(_ *testing.T, p *sim.Proc, c *cluster.Cluster, _ *Framework) {
	p.Sleep(npb.New(npb.LU, npb.ClassS, 8).EstimatedRuntime() / 2)
	c.KillNode(p, "node03")
}

// endingCounters renders the Job Manager's outcome counters.
func endingCounters(jm *JobManager) string {
	return fmt.Sprintf("done=%d aborted=%d retries=%d fallbacks=%d resends=%d reactive=%d replicas=%d",
		jm.MigrationsDone, jm.MigrationsAborted, jm.SpareRetries, jm.CRFallbacks, jm.RestartResends,
		jm.ReactiveRestarts, jm.ReplicaRestores)
}

// recoveryKinds renders the RecoveryRecords in order as "kind start..end"
// (sim ns). Rework is left out: it is a derived figure, not part of what the
// engine simulates.
func recoveryKinds(fw *Framework) string {
	var s string
	for i, r := range fw.Recoveries {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s %d..%d", r.Kind, int64(r.Start), int64(r.End))
	}
	return s
}

func TestRecoveryEndingsPinned(t *testing.T) {
	ft := Options{Hash: true, PhaseDeadline: 2 * time.Second}
	auto := func(s strategy.Strategy, ckpt sim.Duration) Options {
		return Options{Hash: true, PhaseDeadline: 2 * time.Second, AutoPolicy: true, Strategy: s, CkptInterval: ckpt}
	}
	cases := []struct {
		name     string
		rig      endingRig
		kinds    string // recoveryKinds
		counters string // endingCounters
		lost     bool
		records  int
		hash     uint64
	}{
		{
			name: "retry-then-complete",
			rig: endingRig{spares: 2, pvfs: 2, opts: ft, drive: checkpointThenMigrate,
				faults: func(inj *fault.Injector) {
					inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "spare01"})
				}},
			kinds:    "migrate 704738047..1267781793",
			counters: "done=1 aborted=1 retries=1 fallbacks=0 resends=0 reactive=0 replicas=0",
			records:  32849,
			hash:     0x88a82b0087af1dce,
		},
		{
			name: "resume-in-place",
			rig: endingRig{spares: 1, opts: ft, drive: migrateNode02,
				faults: func(inj *fault.Injector) {
					inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "spare01"})
				}},
			kinds:    "resume-in-place 18626000..117049480",
			counters: "done=0 aborted=1 retries=0 fallbacks=0 resends=0 reactive=0 replicas=0",
			records:  32525,
			hash:     0x79f8152e40323576,
		},
		{
			name: "cr-fallback",
			rig: endingRig{spares: 2, pvfs: 2, opts: ft, drive: checkpointThenMigrate,
				faults: func(inj *fault.Injector) {
					inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "node02"})
				}},
			kinds:    "cr-fallback 704738047..1631530264",
			counters: "done=0 aborted=1 retries=0 fallbacks=1 resends=0 reactive=0 replicas=0",
			records:  32715,
			hash:     0x81381aca253e6b44,
		},
		{
			name: "abandon-no-checkpoint",
			rig: endingRig{spares: 1, opts: ft, drive: migrateNode02,
				faults: func(inj *fault.Injector) {
					inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "node02"})
				}},
			kinds:    "abandon 18626000..19049480",
			counters: "done=0 aborted=1 retries=0 fallbacks=1 resends=0 reactive=0 replicas=0",
			records:  4605,
			hash:     0x816a87cb2b572020,
			lost:     true,
		},
		{
			name: "restart-republish",
			rig: endingRig{spares: 2, pvfs: 2, opts: ft, drive: checkpointThenMigrate,
				faults: func(inj *fault.Injector) {
					inj.AtPhase(1, 1, fault.Spec{Kind: fault.FTBDrop, Event: ftb.EventRestart})
				}},
			kinds:    "migrate 704738047..5238931195",
			counters: "done=1 aborted=0 retries=0 fallbacks=0 resends=1 reactive=0 replicas=0",
			records:  32841,
			hash:     0x6d61e810d7d5550d,
		},
		{
			name:     "reactive-restart",
			rig:      endingRig{spares: 2, pvfs: 2, opts: auto(strategy.ReactiveCR{}, 15*time.Millisecond), drive: killNode03},
			kinds:    "reactive-cr 701123212..1632877549",
			counters: "done=0 aborted=0 retries=0 fallbacks=0 resends=0 reactive=1 replicas=0",
			records:  1234,
			hash:     0xfa8170ab443fccf4,
		},
		{
			name: "replica-restore",
			rig: endingRig{spares: 2, pvfs: 2, opts: auto(strategy.Replicate{}, 0),
				drive: func(_ *testing.T, p *sim.Proc, c *cluster.Cluster, fw *Framework) {
					mon := c.FTB.Connect(c.Login.Name, "test-monitor")
					mon.Publish(p, ftb.Event{
						Namespace: health.NamespaceIPMI,
						Name:      health.EventSensorWarn,
						Severity:  "WARN",
						Payload:   health.SensorReading{Node: "node03", Sensor: "test", Value: 1},
					})
					for sh := fw.jm.shadows["node03"]; sh == nil || !sh.ready; sh = fw.jm.shadows["node03"] {
						p.Sleep(time.Millisecond)
					}
					c.KillNode(p, "node03")
				}},
			kinds:    "replica 61628000..450532655",
			counters: "done=0 aborted=0 retries=0 fallbacks=0 resends=0 reactive=0 replicas=1",
			records:  347,
			hash:     0xcff549b132a23d4f,
		},
		{
			name:     "job-lost-after-death",
			rig:      endingRig{spares: 2, opts: auto(strategy.ProactiveMigrate{}, 0), drive: killNode03},
			kinds:    "abandon 43316468..43732269",
			counters: "done=0 aborted=0 retries=0 fallbacks=0 resends=0 reactive=0 replicas=0",
			records:  213,
			hash:     0x989309e794da5edf,
			lost:     true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, fw := runEnding(t, tc.rig)
			if got := recoveryKinds(fw); got != tc.kinds {
				t.Errorf("recoveries = %q, want %q", got, tc.kinds)
			}
			if got := endingCounters(fw.jm); got != tc.counters {
				t.Errorf("counters = %q, want %q", got, tc.counters)
			}
			if fw.jm.JobLost() != tc.lost {
				t.Errorf("JobLost = %v, want %v", fw.jm.JobLost(), tc.lost)
			}
			if !tc.lost && !fw.W.Done() {
				t.Error("job did not finish")
			}
			n, h := len(rec.Records), rec.Fingerprint()
			if n != tc.records || h != tc.hash {
				t.Errorf("trace = %d records %#x, want %d records %#x", n, h, tc.records, tc.hash)
			}
		})
	}
}

// TestQueuedTriggersAfterDroppedOne queues two triggers behind a PVFS
// checkpoint, the first for a node that does not exist. When the checkpoint
// releases the job, the first is dropped and the Job Manager, still idle,
// must go on to the second: it migrates node02 and its completion fires.
func TestQueuedTriggersAfterDroppedOne(t *testing.T) {
	var bad, good *sim.Event
	rig := endingRig{spares: 2, pvfs: 2, opts: Options{Hash: true, PhaseDeadline: 2 * time.Second},
		drive: func(t *testing.T, p *sim.Proc, _ *cluster.Cluster, fw *Framework) {
			p.SpawnChild("test.trigger", func(cp *sim.Proc) {
				cp.Sleep(10 * time.Millisecond)
				bad = fw.TriggerMigration(cp, "node99")
				good = fw.TriggerMigration(cp, "node02")
			})
			if _, err := fw.Checkpoint(p, cr.PVFS); err != nil {
				t.Error(err)
			}
			for good == nil || !good.Fired() {
				if fw.W.Done() {
					return
				}
				p.Sleep(time.Millisecond)
			}
		}}
	_, fw := runEnding(t, rig)
	jm := fw.jm
	if bad == nil || !bad.Fired() || !good.Fired() {
		t.Fatalf("completions fired: dropped %v, node02 %v; pending %q", bad != nil && bad.Fired(), good != nil && good.Fired(), jm.pending)
	}
	if jm.MigrationsDone != 1 || jm.FailedTriggers != 1 || len(jm.pending) != 0 {
		t.Errorf("done=%d failed=%d pending=%q, want 1, 1, none", jm.MigrationsDone, jm.FailedTriggers, jm.pending)
	}
	if !fw.W.Done() {
		t.Error("job did not finish")
	}
}
