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
)

// launchFT builds the failure testbed: 4 compute nodes, 2 spares (recovery
// may burn one and retry on the other), 2 PVFS servers (the CR-fallback image
// must survive node deaths — a dead node takes its local disk with it), image
// hashing on, and a tight phase deadline so stalled-migration tests run fast.
func launchFT(t *testing.T) (*sim.Engine, *cluster.Cluster, *Framework, *npb.Result, npb.Workload) {
	t.Helper()
	e := sim.NewEngine(17)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: 2, PVFSServers: 2})
	w := npb.New(npb.LU, npb.ClassS, 8)
	res := npb.NewResult(w.Ranks)
	fw := Launch(c, w, 2, res, Options{Hash: true, PhaseDeadline: 2 * time.Second})
	return e, c, fw, res, w
}

// runProtected checkpoints the job, triggers a migration of node02, and runs
// to completion.
func runProtected(t *testing.T, e *sim.Engine, fw *Framework) {
	t.Helper()
	e.Spawn("test.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		if _, err := fw.Checkpoint(p, cr.PVFS); err != nil {
			t.Error(err)
		}
		p.Sleep(10 * time.Millisecond)
		done := fw.TriggerMigration(p, "node02")
		done.Wait(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
}

func requireJobIntact(t *testing.T, fw *Framework, res *npb.Result, w npb.Workload) {
	t.Helper()
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d finished %d/%d iterations", i, n, w.Iterations)
		}
	}
	if fw.jm.JobLost() {
		t.Fatal("job reported lost")
	}
	if !fw.lastVerified {
		t.Error("restored images not checksum-verified")
	}
}

// TestFaultMatrix drives every fault kind through every migration phase and
// requires the job to finish all iterations with verified images, with the
// recovery path the failure model prescribes:
//
//   - source crash before the image left (phase 1-2): CR fallback; after
//     (phase 3-4): the crash is moot, the migration completes.
//   - target crash / target link failure while the source is intact (phase
//     1-2): abort and retry onto the remaining spare; after the source
//     vacated (phase 3-4): CR fallback.
//   - lost FTB_RESTART (armed phase 1-3): detected by the phase deadline and
//     re-published; armed at phase 4 it never triggers (nothing left to drop).
func TestFaultMatrix(t *testing.T) {
	type expect struct {
		aborts    int
		retries   int
		fallbacks int
		resends   int
		done      int
	}
	cells := []struct {
		kind string
		spec func(c *cluster.Cluster) fault.Spec
		exp  map[int]expect // phase -> expected counters
	}{
		{
			kind: "src-crash",
			spec: func(c *cluster.Cluster) fault.Spec { return fault.Spec{Kind: fault.NodeCrash, Node: "node02"} },
			exp: map[int]expect{
				1: {aborts: 1, fallbacks: 1},
				2: {aborts: 1, fallbacks: 1},
				3: {done: 1},
				4: {done: 1},
			},
		},
		{
			kind: "tgt-crash",
			spec: func(c *cluster.Cluster) fault.Spec { return fault.Spec{Kind: fault.NodeCrash, Node: "spare01"} },
			exp: map[int]expect{
				1: {aborts: 1, retries: 1, done: 1},
				2: {aborts: 1, retries: 1, done: 1},
				3: {aborts: 1, fallbacks: 1},
				4: {aborts: 1, fallbacks: 1},
			},
		},
		{
			kind: "link",
			spec: func(c *cluster.Cluster) fault.Spec { return fault.Spec{Kind: fault.HCAFail, Node: "spare01"} },
			exp: map[int]expect{
				1: {aborts: 1, retries: 1, done: 1},
				2: {aborts: 1, retries: 1, done: 1},
				3: {aborts: 1, fallbacks: 1},
				4: {aborts: 1, fallbacks: 1},
			},
		},
		{
			kind: "drop-restart",
			spec: func(c *cluster.Cluster) fault.Spec {
				return fault.Spec{Kind: fault.FTBDrop, Event: ftb.EventRestart}
			},
			exp: map[int]expect{
				1: {resends: 1, done: 1},
				2: {resends: 1, done: 1},
				3: {resends: 1, done: 1},
				4: {done: 1},
			},
		},
	}
	for _, cell := range cells {
		for phase := 1; phase <= 4; phase++ {
			cell := cell
			phase := phase
			t.Run(fmt.Sprintf("%s/phase%d", cell.kind, phase), func(t *testing.T) {
				e, c, fw, res, w := launchFT(t)
				inj := fault.NewInjector(c)
				inj.Bind(fw)
				inj.AtPhase(1, phase, cell.spec(c))
				runProtected(t, e, fw)
				requireJobIntact(t, fw, res, w)
				jm := fw.jm
				exp := cell.exp[phase]
				if jm.MigrationsAborted != exp.aborts {
					t.Errorf("MigrationsAborted = %d, want %d", jm.MigrationsAborted, exp.aborts)
				}
				if jm.SpareRetries != exp.retries {
					t.Errorf("SpareRetries = %d, want %d", jm.SpareRetries, exp.retries)
				}
				if jm.CRFallbacks != exp.fallbacks {
					t.Errorf("CRFallbacks = %d, want %d", jm.CRFallbacks, exp.fallbacks)
				}
				if jm.RestartResends != exp.resends {
					t.Errorf("RestartResends = %d, want %d", jm.RestartResends, exp.resends)
				}
				if jm.MigrationsDone != exp.done {
					t.Errorf("MigrationsDone = %d, want %d", jm.MigrationsDone, exp.done)
				}
				if exp.retries == 1 {
					// The retry landed the migrated ranks on the second spare.
					if got := len(fw.W.RanksOn("spare02")); got != 2 {
						t.Errorf("ranks on spare02 = %d, want 2", got)
					}
				}
			})
		}
	}
}

func TestTargetCrashRetriesOntoRemainingSpare(t *testing.T) {
	e, c, fw, res, w := launchFT(t)
	inj := fault.NewInjector(c)
	inj.Bind(fw)
	inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "spare01"})
	runProtected(t, e, fw)
	requireJobIntact(t, fw, res, w)
	jm := fw.jm
	if jm.SpareRetries != 1 {
		t.Fatalf("SpareRetries = %d, want 1", jm.SpareRetries)
	}
	if got := len(fw.W.RanksOn("spare02")); got != 2 {
		t.Fatalf("ranks on spare02 = %d, want 2", got)
	}
	if st := fw.NLA("spare02").State(); st != StateReady {
		t.Errorf("spare02 NLA = %v, want MIGRATION_READY", st)
	}
	if st := fw.NLA("node02").State(); st != StateInactive {
		t.Errorf("node02 NLA = %v, want MIGRATION_INACTIVE", st)
	}
}

func TestSourceCrashMidTransferFallsBackToCR(t *testing.T) {
	e, c, fw, res, w := launchFT(t)
	inj := fault.NewInjector(c)
	inj.Bind(fw)
	inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "node02"})
	runProtected(t, e, fw)
	requireJobIntact(t, fw, res, w)
	jm := fw.jm
	if jm.CRFallbacks != 1 {
		t.Fatalf("CRFallbacks = %d, want 1", jm.CRFallbacks)
	}
	// The dead node's ranks were restored from the checkpoint onto a spare.
	for _, rk := range fw.W.Ranks() {
		if rk.Node() == "node02" {
			t.Errorf("rank %d still placed on the dead node", rk.ID())
		}
	}
}

func TestNoSpareLeftResumesInPlace(t *testing.T) {
	// Only one spare: when the target dies mid-transfer there is nowhere to
	// retry, but the source still holds intact processes — the migration is
	// abandoned and the job resumes where it was.
	e := sim.NewEngine(17)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: 1, PVFSServers: 0})
	w := npb.New(npb.LU, npb.ClassS, 8)
	res := npb.NewResult(w.Ranks)
	fw := Launch(c, w, 2, res, Options{Hash: true, PhaseDeadline: 2 * time.Second})
	inj := fault.NewInjector(c)
	inj.Bind(fw)
	inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "spare01"})
	migrateOnce(t, e, fw, "node02", 30*time.Millisecond)
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d finished %d/%d iterations", i, n, w.Iterations)
		}
	}
	jm := fw.jm
	if jm.MigrationsAborted != 1 || jm.SpareRetries != 0 || jm.CRFallbacks != 0 {
		t.Fatalf("counters aborted=%d retries=%d fallbacks=%d, want 1/0/0",
			jm.MigrationsAborted, jm.SpareRetries, jm.CRFallbacks)
	}
	if jm.MigrationsDone != 0 {
		t.Errorf("MigrationsDone = %d, want 0 (migration was abandoned)", jm.MigrationsDone)
	}
	if got := len(fw.W.RanksOn("node02")); got != 2 {
		t.Errorf("ranks on node02 = %d, want 2 (job resumed in place)", got)
	}
}

func TestSourceCrashWithoutCheckpointLosesJob(t *testing.T) {
	// The fallback needs a prior Framework.Checkpoint; without one the
	// framework can only record the loss (the paper's framework layers
	// proactive migration over periodic CR for exactly this reason).
	e := sim.NewEngine(17)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: 1, PVFSServers: 0})
	w := npb.New(npb.LU, npb.ClassS, 8)
	res := npb.NewResult(w.Ranks)
	fw := Launch(c, w, 2, res, Options{Hash: true, PhaseDeadline: 2 * time.Second})
	inj := fault.NewInjector(c)
	inj.Bind(fw)
	inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "node02"})
	triggerFired := false
	e.Spawn("test.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(30 * time.Millisecond)
		done := fw.TriggerMigration(p, "node02")
		done.Wait(p)
		triggerFired = true
	})
	if err := e.RunUntil(sim.Time(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !triggerFired {
		t.Fatal("trigger completion never fired")
	}
	if !fw.jm.JobLost() {
		t.Fatal("JobLost not set after unrecoverable source crash")
	}
}

func TestPredictedSpareIsPassedOver(t *testing.T) {
	// Predictor-aware selection: a spare with an outstanding failure
	// prediction is skipped in favor of a healthy one.
	e, c, fw, res, w := launchFT(t)
	pred := c.FTB.Connect("login", "test-predictor")
	e.Spawn("test.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		pred.Publish(p, ftb.Event{
			Namespace: health.NamespacePred,
			Name:      health.EventFailurePredicted,
			Severity:  "WARN",
			Payload:   "spare01",
		})
		p.Sleep(30 * time.Millisecond) // let the warning propagate
		done := fw.TriggerMigration(p, "node02")
		done.Wait(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	requireJobIntact(t, fw, res, w)
	if got := len(fw.W.RanksOn("spare02")); got != 2 {
		t.Fatalf("ranks on spare02 = %d, want 2 (warned spare01 must be skipped)", got)
	}
	if st := fw.NLA("spare01").State(); st != StateSpare {
		t.Errorf("spare01 NLA = %v, want MIGRATION_SPARE (never used)", st)
	}
}

func TestWarnedSpareStillUsedAsLastResort(t *testing.T) {
	// With every spare warned, a predicted-to-fail spare still beats dropping
	// the migration.
	e, c, fw, res, w := launchFT(t)
	pred := c.FTB.Connect("login", "test-predictor")
	e.Spawn("test.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		for _, sp := range c.SpareNames() {
			pred.Publish(p, ftb.Event{
				Namespace: health.NamespacePred,
				Name:      health.EventFailurePredicted,
				Severity:  "WARN",
				Payload:   sp,
			})
		}
		p.Sleep(30 * time.Millisecond)
		done := fw.TriggerMigration(p, "node02")
		done.Wait(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	requireJobIntact(t, fw, res, w)
	if fw.jm.FailedTriggers != 0 {
		t.Fatalf("FailedTriggers = %d, want 0", fw.jm.FailedTriggers)
	}
	if fw.jm.MigrationsDone != 1 {
		t.Fatalf("MigrationsDone = %d, want 1", fw.jm.MigrationsDone)
	}
}

func TestCheckpointDefersMigrationTrigger(t *testing.T) {
	// A trigger arriving while the job is frozen for a full checkpoint is
	// queued and served after CKPT_DONE, not dropped.
	e, _, fw, res, w := launchFT(t)
	e.Spawn("test.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.SpawnChild("ckpt", func(cp *sim.Proc) {
			if _, err := fw.Checkpoint(cp, cr.PVFS); err != nil {
				t.Error(err)
			}
		})
		p.Sleep(time.Millisecond) // trigger lands mid-checkpoint
		fw.TriggerMigration(p, "node02").Wait(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	requireJobIntact(t, fw, res, w)
	if fw.jm.MigrationsDone != 1 {
		t.Fatalf("MigrationsDone = %d, want 1 (deferred trigger must be served)", fw.jm.MigrationsDone)
	}
}

func TestFaultRecoveryDeterministic(t *testing.T) {
	run := func() (int, int, string) {
		e, c, fw, _, _ := launchFT(t)
		inj := fault.NewInjector(c)
		inj.Bind(fw)
		inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "spare01"})
		runProtected(t, e, fw)
		return fw.jm.SpareRetries, fw.jm.MigrationsAborted, fw.Reports[len(fw.Reports)-1].String()
	}
	r1, a1, s1 := run()
	r2, a2, s2 := run()
	if r1 != r2 || a1 != a2 || s1 != s2 {
		t.Fatalf("fault recovery not deterministic:\n%d/%d %q\n%d/%d %q", r1, a1, s1, r2, a2, s2)
	}
}
