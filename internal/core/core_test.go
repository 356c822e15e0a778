package core

import (
	"testing"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/metrics"
	"ibmig/internal/npb"
	"ibmig/internal/sim"
)

// launch builds a small testbed (4 compute nodes, configurable spares) and
// starts LU class S with 8 ranks, 2 per node.
func launch(t *testing.T, opts Options, spares int) (*sim.Engine, *cluster.Cluster, *Framework, *npb.Result, npb.Workload) {
	t.Helper()
	e := sim.NewEngine(17)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: spares, PVFSServers: 0})
	w := npb.New(npb.LU, npb.ClassS, 8)
	res := npb.NewResult(w.Ranks)
	fw := Launch(c, w, 2, res, opts)
	return e, c, fw, res, w
}

// migrateOnce triggers a migration of srcNode shortly after start and runs
// the job to completion.
func migrateOnce(t *testing.T, e *sim.Engine, fw *Framework, srcNode string, at sim.Duration) {
	t.Helper()
	e.Spawn("test.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(at)
		done := fw.TriggerMigration(p, srcNode)
		done.Wait(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
}

func TestMigrationCycleEndToEnd(t *testing.T) {
	e, c, fw, res, w := launch(t, Options{Hash: true}, 1)
	migrateOnce(t, e, fw, "node02", 30*time.Millisecond)

	// The application finished every iteration on every rank.
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d finished %d/%d iterations", i, n, w.Iterations)
		}
	}
	// One migration, phase-decomposed report.
	if len(fw.Reports) != 1 {
		t.Fatalf("reports = %d, want 1", len(fw.Reports))
	}
	r := fw.Reports[0]
	for _, ph := range []string{metrics.PhaseStall, metrics.PhaseMigrate, metrics.PhaseRestart, metrics.PhaseResume} {
		if r.Phase(ph) <= 0 {
			t.Errorf("phase %q has no recorded duration", ph)
		}
	}
	// Data volume: exactly the checkpoint streams of the two migrated ranks.
	var want int64
	for _, rk := range fw.W.RanksOn("spare01") {
		want += rk.OS.ImageSize() + 64 + 64*int64(len(rk.OS.Segments))
	}
	if r.BytesMoved != want {
		t.Errorf("bytes moved = %d, want %d", r.BytesMoved, want)
	}
	// Ranks 4,5 (node02 hosted ranks 4..5 with ppn=2... node order) moved to
	// the spare, and their processes live in the spare's table.
	moved := fw.W.RanksOn("spare01")
	if len(moved) != 2 {
		t.Fatalf("ranks on spare = %d, want 2", len(moved))
	}
	for _, rk := range moved {
		if rk.OS.Node != "spare01" {
			t.Errorf("rank %d process still on %s", rk.ID(), rk.OS.Node)
		}
		if c.Node("spare01").Procs.Get(rk.OS.PID) == nil {
			t.Errorf("rank %d pid missing from spare table", rk.ID())
		}
	}
	if c.Node("node02").Procs.Len() != 0 {
		t.Errorf("source node still has %d processes", c.Node("node02").Procs.Len())
	}
	// Image identity held end to end.
	if !fwLastMigrationVerified(fw) {
		t.Error("restored images not bit-identical to checkpointed images")
	}
	// NLA state machine.
	if got := fw.NLA("node02").State(); got != StateInactive {
		t.Errorf("source NLA state = %v", got)
	}
	if got := fw.NLA("spare01").State(); got != StateReady {
		t.Errorf("target NLA state = %v", got)
	}
	if fw.JobManager().MigrationsDone != 1 {
		t.Errorf("migrations done = %d", fw.JobManager().MigrationsDone)
	}
}

// fwLastMigrationVerified reports the restoredOK flag of the last migration.
func fwLastMigrationVerified(fw *Framework) bool {
	return fw.lastVerified
}

func TestMigrationIsApplicationTransparent(t *testing.T) {
	// Clean run.
	eClean, _, fwClean, resClean, _ := launch(t, Options{}, 1)
	eClean.Spawn("ctl", func(p *sim.Proc) {
		fwClean.W.WaitDone(p)
		eClean.Stop()
	})
	if err := eClean.Run(); err != nil {
		t.Fatal(err)
	}
	eClean.Shutdown()

	// Migrated run.
	eMig, _, fwMig, resMig, _ := launch(t, Options{Hash: true}, 1)
	migrateOnce(t, eMig, fwMig, "node01", 25*time.Millisecond)

	if !resClean.Equal(resMig) {
		t.Fatal("migration changed the application's results")
	}
}

func TestMemoryRestartFasterThanFileRestart(t *testing.T) {
	run := func(mode RestartMode) sim.Duration {
		e, _, fw, _, _ := launch(t, Options{RestartMode: mode, Hash: true}, 1)
		migrateOnce(t, e, fw, "node03", 30*time.Millisecond)
		if len(fw.Reports) != 1 {
			t.Fatal("migration did not complete")
		}
		if !fwLastMigrationVerified(fw) {
			t.Fatalf("mode %v lost image identity", mode)
		}
		return fw.Reports[0].Phase(metrics.PhaseRestart)
	}
	file := run(RestartFile)
	memory := run(RestartMemory)
	if memory >= file {
		t.Fatalf("memory restart (%v) not faster than file restart (%v)", memory, file)
	}
}

func TestSocketStagingSlowerThanRDMA(t *testing.T) {
	run := func(tr Transport) sim.Duration {
		e, _, fw, _, _ := launch(t, Options{Transport: tr, Hash: true}, 1)
		migrateOnce(t, e, fw, "node01", 30*time.Millisecond)
		if len(fw.Reports) != 1 {
			t.Fatal("migration did not complete")
		}
		if !fwLastMigrationVerified(fw) {
			t.Fatalf("transport %v lost image identity", tr)
		}
		return fw.Reports[0].Phase(metrics.PhaseMigrate)
	}
	rdma := run(TransportRDMA)
	socket := run(TransportSocket)
	if socket <= rdma {
		t.Fatalf("socket staging (%v) not slower than RDMA (%v)", socket, rdma)
	}
}

func TestTinyBufferPoolStillCompletes(t *testing.T) {
	// A pool with fewer chunks than migrating processes must still make
	// progress (flow control, not deadlock).
	e, _, fw, res, w := launch(t, Options{BufferPoolBytes: 2 << 20, ChunkBytes: 1 << 20, Hash: true}, 1)
	migrateOnce(t, e, fw, "node02", 30*time.Millisecond)
	if len(fw.Reports) != 1 || !fwLastMigrationVerified(fw) {
		t.Fatal("migration with 2-chunk pool failed")
	}
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d incomplete", i)
		}
	}
}

func TestTwoMigrationsConsumeTwoSpares(t *testing.T) {
	e, c, fw, res, w := launch(t, Options{Hash: true}, 2)
	e.Spawn("ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(20 * time.Millisecond)
		d1 := fw.TriggerMigration(p, "node01")
		d1.Wait(p)
		d2 := fw.TriggerMigration(p, "node03")
		d2.Wait(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if fw.JobManager().MigrationsDone != 2 {
		t.Fatalf("migrations done = %d", fw.JobManager().MigrationsDone)
	}
	if fw.NLA("spare01").State() != StateReady || fw.NLA("spare02").State() != StateReady {
		t.Fatal("spares not consumed in order")
	}
	if c.Node("node01").Procs.Len() != 0 || c.Node("node03").Procs.Len() != 0 {
		t.Fatal("sources not vacated")
	}
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d incomplete after two migrations", i)
		}
	}
}

func TestTriggerWithoutSpareIsDropped(t *testing.T) {
	e, _, fw, res, w := launch(t, Options{}, 1)
	e.Spawn("ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(20 * time.Millisecond)
		fw.TriggerMigration(p, "node01").Wait(p)
		// Second trigger: no spare left.
		fw.TriggerMigration(p, "node02").Wait(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if fw.JobManager().MigrationsDone != 1 || fw.JobManager().FailedTriggers != 1 {
		t.Fatalf("done=%d failed=%d, want 1,1", fw.JobManager().MigrationsDone, fw.JobManager().FailedTriggers)
	}
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d incomplete", i)
		}
	}
}

func TestMigrationDeterministic(t *testing.T) {
	run := func() (sim.Duration, int64) {
		e, _, fw, _, _ := launch(t, Options{Hash: true}, 1)
		migrateOnce(t, e, fw, "node02", 30*time.Millisecond)
		return fw.Reports[0].Total(), fw.Reports[0].BytesMoved
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("nondeterministic migration: (%v,%d) vs (%v,%d)", t1, b1, t2, b2)
	}
}

func TestPhaseShapeMatchesPaper(t *testing.T) {
	// Structural claims from the paper's Fig. 4: the stall is the cheapest
	// phase; for file-based restart, Phase 3 dominates Phase 2.
	e, _, fw, _, _ := launch(t, Options{Hash: true}, 1)
	migrateOnce(t, e, fw, "node02", 30*time.Millisecond)
	r := fw.Reports[0]
	stall := r.Phase(metrics.PhaseStall)
	mig := r.Phase(metrics.PhaseMigrate)
	restart := r.Phase(metrics.PhaseRestart)
	if stall >= mig || stall >= restart {
		t.Errorf("stall (%v) should be the cheapest phase (mig %v, restart %v)", stall, mig, restart)
	}
	if restart <= mig {
		t.Errorf("file-based restart (%v) should dominate migration (%v)", restart, mig)
	}
}

func TestPipelinedRestartOverlapsTransfer(t *testing.T) {
	run := func(mode RestartMode) (restart sim.Duration, total sim.Duration) {
		e, _, fw, res, w := launch(t, Options{RestartMode: mode, Hash: true}, 1)
		migrateOnce(t, e, fw, "node03", 30*time.Millisecond)
		if len(fw.Reports) != 1 || !fwLastMigrationVerified(fw) {
			t.Fatalf("mode %v: migration incomplete or unverified", mode)
		}
		for i, n := range res.IterDone {
			if n != w.Iterations {
				t.Fatalf("mode %v: rank %d incomplete", mode, i)
			}
		}
		return fw.Reports[0].Phase(metrics.PhaseRestart), fw.Reports[0].Total()
	}
	fileRestart, fileTotal := run(RestartFile)
	_, memTotal := run(RestartMemory)
	pipeRestart, pipeTotal := run(RestartPipelined)
	// The residual Phase 3 is bounded by the last rank's restart cost (the
	// one restart that cannot overlap the transfer).
	if pipeRestart >= fileRestart/2 {
		t.Errorf("pipelined restart phase %v not well below file restart %v", pipeRestart, fileRestart)
	}
	if pipeTotal >= fileTotal {
		t.Errorf("pipelined total %v not below file total %v", pipeTotal, fileTotal)
	}
	if pipeTotal > memTotal {
		t.Errorf("pipelined total %v should be <= memory-mode total %v (overlap)", pipeTotal, memTotal)
	}
}
