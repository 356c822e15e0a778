package core

import (
	"testing"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/cr"
	"ibmig/internal/fault"
	"ibmig/internal/npb"
	"ibmig/internal/sim"
	"ibmig/internal/strategy"
)

// Double-fault recovery: a second failure arrives while the Job Manager is
// already recovering from the first. Every path must reach a terminal state
// under the phase watchdog — completed, resumed in place, or abandoned — and
// never deadlock the driver.

// TestDoubleFaultSpareDiesMidRetry burns two target spares in a row: the
// first attempt's target dies mid-transfer, and so does the retry's. With a
// third spare available the migration must complete on it.
func TestDoubleFaultSpareDiesMidRetry(t *testing.T) {
	e := sim.NewEngine(17)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: 3, PVFSServers: 2})
	w := npb.New(npb.LU, npb.ClassS, 8)
	res := npb.NewResult(w.Ranks)
	fw := Launch(c, w, 2, res, Options{Hash: true, PhaseDeadline: 2 * time.Second})
	inj := fault.NewInjector(c)
	inj.Bind(fw)
	inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "spare01"})
	inj.AtPhase(2, 2, fault.Spec{Kind: fault.NodeCrash, Node: "spare02"})
	migrateOnce(t, e, fw, "node02", 30*time.Millisecond)
	requireJobIntact(t, fw, res, w)

	jm := fw.jm
	if jm.SpareRetries != 2 || jm.MigrationsDone != 1 || jm.MigrationsAborted != 2 {
		t.Fatalf("retries=%d done=%d aborted=%d, want 2/1/2",
			jm.SpareRetries, jm.MigrationsDone, jm.MigrationsAborted)
	}
	if jm.SpareExhaustions != 0 || jm.TerminalReason != "" {
		t.Fatalf("exhaustions=%d reason=%q, want 0/empty (a spare was left)",
			jm.SpareExhaustions, jm.TerminalReason)
	}
	if len(fw.Attempts) != 3 {
		t.Fatalf("attempts = %d, want 3", len(fw.Attempts))
	}
	if a := fw.Attempts[2]; a.Dst != "spare03" || !a.Completed {
		t.Fatalf("final attempt %+v, want completed onto spare03", a)
	}
	if got := len(fw.W.RanksOn("spare03")); got != 2 {
		t.Errorf("ranks on spare03 = %d, want 2", got)
	}
}

// TestDoubleFaultExhaustsSparePool is the same double fault with only two
// spares: after the retry's target dies too, the pool is empty. The source
// still holds intact processes, so the job must resume in place, with the
// distinct spare-exhaustion terminal reason recorded.
func TestDoubleFaultExhaustsSparePool(t *testing.T) {
	e := sim.NewEngine(17)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: 2, PVFSServers: 2})
	w := npb.New(npb.LU, npb.ClassS, 8)
	res := npb.NewResult(w.Ranks)
	fw := Launch(c, w, 2, res, Options{Hash: true, PhaseDeadline: 2 * time.Second})
	inj := fault.NewInjector(c)
	inj.Bind(fw)
	inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "spare01"})
	inj.AtPhase(2, 2, fault.Spec{Kind: fault.NodeCrash, Node: "spare02"})
	migrateOnce(t, e, fw, "node02", 30*time.Millisecond)
	requireJobIntact(t, fw, res, w)

	jm := fw.jm
	if jm.SpareRetries != 1 || jm.MigrationsDone != 0 || jm.MigrationsAborted != 2 {
		t.Fatalf("retries=%d done=%d aborted=%d, want 1/0/2",
			jm.SpareRetries, jm.MigrationsDone, jm.MigrationsAborted)
	}
	if jm.SpareExhaustions != 1 || jm.TerminalReason != strategy.ReasonSpareExhausted {
		t.Fatalf("exhaustions=%d reason=%q, want 1/%q",
			jm.SpareExhaustions, jm.TerminalReason, strategy.ReasonSpareExhausted)
	}
	if got := len(fw.W.RanksOn("node02")); got != 2 {
		t.Errorf("ranks on node02 = %d, want 2 (resumed in place)", got)
	}
	last := fw.Recoveries[len(fw.Recoveries)-1]
	if last.Kind != "resume-in-place" || !last.Ok {
		t.Errorf("last recovery record %+v, want ok resume-in-place", last)
	}
}

// TestRetryBudgetStopsSpareBurn kills the target of the first four attempts
// with five spares: after the third retry's target also dies, a spare is
// still free but the budget of strategy.MaxSpareRetries is spent — the job
// must resume in place with the retry-budget terminal reason, leaving the
// fifth spare untouched.
func TestRetryBudgetStopsSpareBurn(t *testing.T) {
	e := sim.NewEngine(17)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: 5, PVFSServers: 2})
	w := npb.New(npb.LU, npb.ClassS, 8)
	res := npb.NewResult(w.Ranks)
	fw := Launch(c, w, 2, res, Options{Hash: true, PhaseDeadline: 2 * time.Second})
	inj := fault.NewInjector(c)
	inj.Bind(fw)
	for seq, spare := range []string{"spare01", "spare02", "spare03", "spare04"} {
		inj.AtPhase(seq+1, 2, fault.Spec{Kind: fault.NodeCrash, Node: spare})
	}
	migrateOnce(t, e, fw, "node02", 30*time.Millisecond)
	requireJobIntact(t, fw, res, w)

	jm := fw.jm
	if jm.SpareRetries != strategy.MaxSpareRetries || jm.MigrationsDone != 0 {
		t.Fatalf("retries=%d done=%d, want %d/0", jm.SpareRetries, jm.MigrationsDone, strategy.MaxSpareRetries)
	}
	if jm.SpareExhaustions != 1 || jm.TerminalReason != strategy.ReasonRetryBudget {
		t.Fatalf("exhaustions=%d reason=%q, want 1/%q",
			jm.SpareExhaustions, jm.TerminalReason, strategy.ReasonRetryBudget)
	}
	if st := fw.NLA("spare05").State(); st != StateSpare {
		t.Errorf("spare05 NLA = %v, want MIGRATION_SPARE (budget must protect it)", st)
	}
}

// TestNodeDiesDuringCRFallback stages the nastiest double fault: a dropped
// FTB_MIGRATE_PIIC forces the CR fallback, and while the fallback is
// streaming images back a node holding in-place restore targets dies.
// Without the post-restore liveness re-check the ranks would rebind onto the
// dead node and the resume would panic against its downed adapter; with it
// the fallback detects the death, recomputes the placement onto the
// remaining spare and restores again — the job survives both faults.
func TestNodeDiesDuringCRFallback(t *testing.T) {
	e, c, fw, _, _ := launchFT(t)
	inj := fault.NewInjector(c)
	inj.Bind(fw)
	inj.AtPhase(1, 2, fault.Spec{Kind: fault.FTBDrop, Event: "FTB_MIGRATE_PIIC"})

	e.Spawn("test.second-fault", func(p *sim.Proc) {
		for fw.jm.CRFallbacks == 0 {
			if fw.jm.JobLost() || fw.W.Done() {
				return
			}
			p.Sleep(20 * time.Microsecond)
		}
		p.Sleep(20 * time.Microsecond) // land inside the restore window
		c.KillNode(p, "node03")
	})
	e.Spawn("test.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		if _, err := fw.Checkpoint(p, cr.PVFS); err != nil {
			t.Error(err)
		}
		p.Sleep(10 * time.Millisecond)
		fw.TriggerMigration(p, "node02").Wait(p)
		for !fw.W.Done() && !fw.jm.JobLost() {
			p.Sleep(time.Millisecond)
		}
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()

	jm := fw.jm
	if jm.CRFallbacks != 1 {
		t.Fatalf("CRFallbacks = %d, want 1", jm.CRFallbacks)
	}
	if jm.JobLost() || !fw.W.Done() {
		t.Fatalf("lost=%v done=%v, want the job to survive both faults", jm.JobLost(), fw.W.Done())
	}
	if got := len(fw.W.RanksOn("node03")); got != 0 {
		t.Errorf("%d ranks left on the dead node03", got)
	}
	last := fw.Recoveries[len(fw.Recoveries)-1]
	if last.Kind != "cr-fallback" || !last.Ok {
		t.Errorf("last recovery record %+v, want ok cr-fallback", last)
	}
}

// TestLinkFlapSurvivedByFTSendPath flaps a compute node's HCA mid-run with
// the fault-tolerant send path active (no migration involved): the MPI layer
// must retry through the outages, rebuild the broken connections, and finish
// every iteration without abandoning a single message.
func TestLinkFlapSurvivedByFTSendPath(t *testing.T) {
	e := sim.NewEngine(17)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: 1, PVFSServers: 0})
	w := npb.New(npb.LU, npb.ClassS, 8)
	res := npb.NewResult(w.Ranks)
	fw := Launch(c, w, 2, res, Options{AutoPolicy: true, Strategy: strategy.ProactiveMigrate{}, PhaseDeadline: 2 * time.Second})
	inj := fault.NewInjector(c)
	inj.At(sim.Time(20*time.Millisecond), fault.Spec{Kind: fault.LinkFlap, Node: "node01"})

	e.Spawn("test.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()

	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d finished %d/%d iterations", i, n, w.Iterations)
		}
	}
	if dropped := fw.W.FTDropped(); dropped != 0 {
		t.Errorf("FTDropped = %d, want 0 (no destination rank had finished)", dropped)
	}
	if fw.jm.JobLost() {
		t.Error("job reported lost under a transient link flap")
	}
}
