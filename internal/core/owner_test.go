package core

import (
	"testing"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/cr"
	"ibmig/internal/sim"
	"ibmig/internal/strategy"
)

// TestOwnerCheckpointRefusals covers every state in which Checkpoint must not
// take the suspension, and the panic of a transition outside the table.
func TestOwnerCheckpointRefusals(t *testing.T) {
	for _, tc := range []struct {
		own  owner
		want string
	}{
		{owner{state: ownMigrating, m: &migrationState{seq: 3}}, "core: checkpoint while migration #3 is in flight"},
		{owner{state: ownCheckpointing}, "core: checkpoint already in progress"},
		{owner{state: ownRecovering}, "core: checkpoint while a recovery owns the suspension"},
		{owner{state: ownLost}, "core: checkpoint of a lost job"},
	} {
		t.Run(ownerNames[tc.own.state], func(t *testing.T) {
			fw := &Framework{own: tc.own}
			// A refusal returns before the checkpoint touches the engine.
			rep, err := fw.Checkpoint(nil, cr.Ext3)
			if err == nil || err.Error() != tc.want || rep != nil {
				t.Fatalf("Checkpoint = %v, %v; want nil, %q", rep, err, tc.want)
			}
			if fw.own != tc.own {
				t.Errorf("refusal moved the owner from %s to %s", ownerNames[tc.own.state], ownerNames[fw.own.state])
			}
		})
	}
	t.Run("illegal", func(t *testing.T) {
		const want = "core: illegal owner transition migrating -> recovering"
		defer func() {
			if r := recover(); r != want {
				t.Errorf("panic = %v, want %q", r, want)
			}
		}()
		o := owner{state: ownMigrating, m: &migrationState{seq: 1}}
		o.acquire(ownRecovering, nil)
	})
}

// TestOwnerCheckpointOfLostJob drives the job-lost-after-death ending, then
// asks for a checkpoint of the frozen job: it must be refused, not suspend
// the job a second time.
func TestOwnerCheckpointOfLostJob(t *testing.T) {
	opts := Options{Hash: true, PhaseDeadline: 2 * time.Second, AutoPolicy: true, Strategy: strategy.ProactiveMigrate{}}
	var err error
	_, fw := runEnding(t, endingRig{spares: 2, opts: opts,
		drive: func(t *testing.T, p *sim.Proc, c *cluster.Cluster, fw *Framework) {
			killNode03(t, p, c, fw)
			for !fw.jm.JobLost() {
				p.Sleep(time.Millisecond)
			}
			_, err = fw.Checkpoint(p, cr.Ext3)
		}})
	if want := "core: checkpoint of a lost job"; err == nil || err.Error() != want {
		t.Fatalf("Checkpoint after the job was lost = %v, want %q", err, want)
	}
	if !fw.jm.JobLost() {
		t.Errorf("owner = %s, want lost", ownerNames[fw.own.state])
	}
}
