package core

import (
	"strings"
	"testing"
	"testing/quick"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/metrics"
	"ibmig/internal/mpi"
	"ibmig/internal/npb"
	"ibmig/internal/sim"
)

// TestMigrationSurvivesUnrelatedFTBAgentDeath kills a bystander node's FTB
// agent in the middle of Phase 2. The backplane self-heals (children
// re-attach to a live ancestor), so the control events that end the
// migration (FTB_MIGRATE_PIIC, FTB_RESTART, FTB_RESTART_DONE) still route.
func TestMigrationSurvivesUnrelatedFTBAgentDeath(t *testing.T) {
	e, c, fw, res, w := launch(t, Options{Hash: true}, 1)
	e.Spawn("ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(30 * time.Millisecond)
		done := fw.TriggerMigration(p, "node02")
		// Kill node04's agent shortly after the trigger: node04 is neither
		// source nor target, but it is in the FTB tree.
		p.Sleep(5 * time.Millisecond)
		c.FTB.KillAgent("node04")
		done.Wait(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if fw.JobManager().MigrationsDone != 1 || !fwLastMigrationVerified(fw) {
		t.Fatal("migration did not complete after agent death")
	}
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d incomplete", i)
		}
	}
}

// TestMigrateSpareOrInactiveNodeRejected checks the NLA state guards: a
// spare (no processes, MIGRATION_SPARE) and an already-vacated node
// (MIGRATION_INACTIVE) are not valid migration sources.
func TestMigrateSpareOrInactiveNodeRejected(t *testing.T) {
	e, _, fw, _, _ := launch(t, Options{}, 2)
	e.Spawn("ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(20 * time.Millisecond)
		fw.TriggerMigration(p, "spare01").Wait(p) // spare: rejected
		fw.TriggerMigration(p, "node01").Wait(p)  // fine
		fw.TriggerMigration(p, "node01").Wait(p)  // now inactive: rejected
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if fw.JobManager().MigrationsDone != 1 || fw.JobManager().FailedTriggers != 2 {
		t.Fatalf("done=%d failed=%d, want 1,2", fw.JobManager().MigrationsDone, fw.JobManager().FailedTriggers)
	}
}

// TestConcurrentTriggersAreSerialized fires two triggers back to back; the
// second must queue behind the first and then run.
func TestConcurrentTriggersAreSerialized(t *testing.T) {
	e, _, fw, res, w := launch(t, Options{Hash: true}, 2)
	e.Spawn("ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(20 * time.Millisecond)
		d1 := fw.TriggerMigration(p, "node01")
		d2 := fw.TriggerMigration(p, "node04") // queued while #1 runs
		d1.Wait(p)
		d2.Wait(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if fw.JobManager().MigrationsDone != 2 {
		t.Fatalf("done = %d, want 2", fw.JobManager().MigrationsDone)
	}
	if len(fw.Reports) != 2 {
		t.Fatalf("reports = %d", len(fw.Reports))
	}
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d incomplete", i)
		}
	}
}

// TestMigrateRankZeroNode moves the node hosting rank 0 (the root of most
// collectives), which exercises the trickiest rebind path.
func TestMigrateRankZeroNode(t *testing.T) {
	e, _, fw, res, w := launch(t, Options{Hash: true}, 1)
	migrateOnce(t, e, fw, "node01", 30*time.Millisecond)
	if !fwLastMigrationVerified(fw) {
		t.Fatal("verification failed")
	}
	if fw.W.Rank(0).Node() != "spare01" {
		t.Fatalf("rank 0 on %s", fw.W.Rank(0).Node())
	}
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d incomplete", i)
		}
	}
}

// TestMigrationDuringCollectiveStorm triggers while the app is doing
// back-to-back barriers and allreduces — the drain must reach a consistent
// state mid-collective and resume without hanging or corrupting results.
func TestMigrationDuringCollectiveStorm(t *testing.T) {
	e := sim.NewEngine(29)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: 1, PVFSServers: 0})
	w := npb.New(npb.LU, npb.ClassS, 8)
	iterations := make([]int, 8)
	fw := LaunchApp(c, "storm", c.Placement(8, 2), w.SegmentSpecs, func(r *mpi.Rank) {
		for it := 0; it < 60; it++ {
			r.Compute(time.Millisecond)
			r.Barrier()
			r.Allreduce(64)
			iterations[r.ID()]++
		}
	}, Options{Hash: true})
	e.Spawn("ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(15 * time.Millisecond)
		fw.TriggerMigration(p, "node03").Wait(p)
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !fwLastMigrationVerified(fw) {
		t.Fatal("verification failed")
	}
	for i, n := range iterations {
		if n != 60 {
			t.Fatalf("rank %d completed %d/60 collective iterations", i, n)
		}
	}
}

// TestPipelinedSocketCombination exercises the full option matrix corner:
// socket transport with on-the-fly restart.
func TestPipelinedSocketCombination(t *testing.T) {
	e, _, fw, res, w := launch(t, Options{Transport: TransportSocket, RestartMode: RestartPipelined, Hash: true}, 1)
	migrateOnce(t, e, fw, "node02", 30*time.Millisecond)
	if len(fw.Reports) != 1 || !fwLastMigrationVerified(fw) {
		t.Fatal("socket+pipelined migration failed")
	}
	// The residual Phase 3 is bounded by one process's restart cost (the
	// rank whose image completes last); at this scale that is ~150 ms.
	if fw.Reports[0].Phase(metrics.PhaseRestart) > 250*time.Millisecond {
		t.Errorf("pipelined restart phase %v larger than one process rebuild", fw.Reports[0].Phase(metrics.PhaseRestart))
	}
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d incomplete", i)
		}
	}
}

// TestQuickOptionMatrix drives migrations across randomized pool/chunk
// geometry, transports and restart modes; every combination must complete
// with bit-identical images and a full application run.
func TestQuickOptionMatrix(t *testing.T) {
	f := func(poolMBRaw, chunkKBRaw, modeRaw, transportRaw uint8) bool {
		opts := Options{
			BufferPoolBytes: (int64(poolMBRaw)%15 + 1) << 20,
			ChunkBytes:      (int64(chunkKBRaw)%32 + 1) << 17, // 128KB..4MB
			RestartMode:     RestartMode(modeRaw % 3),
			Transport:       Transport(transportRaw % 2),
			Hash:            true,
		}
		e, _, fw, res, w := launch(t, opts, 1)
		e.Spawn("ctl", func(p *sim.Proc) {
			fw.W.WaitReady(p)
			p.Sleep(25 * time.Millisecond)
			fw.TriggerMigration(p, "node02").Wait(p)
			fw.W.WaitDone(p)
			e.Stop()
		})
		if err := e.Run(); err != nil {
			t.Log(err)
			return false
		}
		e.Shutdown()
		if len(fw.Reports) != 1 || !fwLastMigrationVerified(fw) {
			return false
		}
		for _, n := range res.IterDone {
			if n != w.Iterations {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestProtocolEventOrderMatchesFig2 records the framework trace and checks
// the paper's Fig. 2 sequence: FTB_MIGRATE precedes the checkpoints, which
// precede FTB_MIGRATE_PIIC, which precedes FTB_RESTART, which precedes the
// restarts, which precede FTB_RESTART_DONE — and the source NLA goes
// INACTIVE before the target goes READY.
func TestProtocolEventOrderMatchesFig2(t *testing.T) {
	e, _, fw, _, _ := launch(t, Options{}, 1)
	rec := &sim.Recorder{}
	e.SetTracer(rec)
	migrateOnce(t, e, fw, "node02", 30*time.Millisecond)

	pos := func(kind, substr string) int {
		for i, r := range rec.Records {
			if r.Kind == kind && (substr == "" || strings.Contains(r.Detail, substr) || strings.Contains(r.Who, substr)) {
				return i
			}
		}
		return -1
	}
	migrate := pos("ftb.publish", "FTB_MIGRATE from")
	firstCkpt := pos("blcr.checkpoint", "")
	piic := pos("ftb.publish", "FTB_MIGRATE_PIIC")
	restartEv := pos("ftb.publish", "FTB_RESTART from")
	firstRestart := pos("blcr.restart", "")
	restartDone := pos("ftb.publish", "FTB_RESTART_DONE")
	srcInactive := -1
	tgtReady := -1
	for i, r := range rec.Records {
		if r.Kind == "core.nla" && r.Who == "node02" && r.Detail == "MIGRATION_INACTIVE" {
			srcInactive = i
		}
		if r.Kind == "core.nla" && r.Who == "spare01" && r.Detail == "MIGRATION_READY" && tgtReady < 0 {
			tgtReady = i
		}
	}
	seq := []struct {
		name string
		at   int
	}{
		{"FTB_MIGRATE", migrate},
		{"first checkpoint", firstCkpt},
		{"source INACTIVE", srcInactive},
		{"FTB_MIGRATE_PIIC", piic},
		{"FTB_RESTART", restartEv},
		{"first restart", firstRestart},
		{"target READY", tgtReady},
		{"FTB_RESTART_DONE", restartDone},
	}
	for i, s := range seq {
		if s.at < 0 {
			t.Fatalf("event %q missing from trace", s.name)
		}
		if i > 0 && s.at <= seq[i-1].at {
			t.Fatalf("protocol order violated: %q (at %d) before %q (at %d)", s.name, s.at, seq[i-1].name, seq[i-1].at)
		}
	}
}

// TestSoakRandomizedMigrations plays a longer class-W run with three
// migrations at deterministic pseudo-random times, exhausting the spare pool
// and migrating a job off a spare it already moved onto, verifying images
// and application results throughout.
func TestSoakRandomizedMigrations(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	e := sim.NewEngine(31)
	c := cluster.New(e, cluster.Config{ComputeNodes: 8, SpareNodes: 3, PVFSServers: 0})
	w := npb.New(npb.LU, npb.ClassW, 16)
	res := npb.NewResult(w.Ranks)
	fw := Launch(c, w, 2, res, Options{Hash: true, RestartMode: RestartMemory})
	e.Spawn("soak", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		rng := e.Rand()
		victims := []string{"node03", "node07", "spare01"}
		for i, v := range victims {
			p.Sleep(sim.Duration(rng.Int63n(int64(w.EstimatedRuntime() / 6))))
			done := fw.TriggerMigration(p, v)
			done.Wait(p)
			if !fw.lastVerified {
				t.Errorf("migration %d of %s lost image identity", i+1, v)
			}
		}
		fw.W.WaitDone(p)
		e.Stop()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if fw.JobManager().MigrationsDone != 3 {
		t.Fatalf("migrations done = %d, want 3", fw.JobManager().MigrationsDone)
	}
	for i, n := range res.IterDone {
		if n != w.Iterations {
			t.Fatalf("rank %d finished %d/%d", i, n, w.Iterations)
		}
	}
}
