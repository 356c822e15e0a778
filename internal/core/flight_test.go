package core

import (
	"strings"
	"testing"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/fault"
	"ibmig/internal/npb"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
)

// TestTerminalAttemptCarriesFlightTail checks the black-box wiring: when a
// flight recorder is attached and a migration attempt ends in an
// unrecoverable loss, the terminal AttemptRecord carries the telemetry tail
// leading up to the failure.
func TestTerminalAttemptCarriesFlightTail(t *testing.T) {
	// The unrecoverable scenario from TestSourceCrashWithoutCheckpointLosesJob:
	// source dies mid-transfer with no prior checkpoint and no way back.
	e := sim.NewEngine(17)
	c := cluster.New(e, cluster.Config{ComputeNodes: 4, SpareNodes: 1, PVFSServers: 0})
	col := obs.Enable(e)
	col.AttachFlight(obs.NewFlightRecorder(0))
	w := npb.New(npb.LU, npb.ClassS, 8)
	res := npb.NewResult(w.Ranks)
	fw := Launch(c, w, 2, res, Options{Hash: true, PhaseDeadline: 2 * time.Second})
	inj := fault.NewInjector(c)
	inj.Bind(fw)
	inj.AtPhase(1, 2, fault.Spec{Kind: fault.NodeCrash, Node: "node02"})
	e.Spawn("test.ctl", func(p *sim.Proc) {
		fw.W.WaitReady(p)
		p.Sleep(30 * time.Millisecond)
		fw.TriggerMigration(p, "node02").Wait(p)
	})
	if err := e.RunUntil(sim.Time(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !fw.jm.JobLost() {
		t.Fatal("JobLost not set after unrecoverable source crash")
	}
	if len(fw.Attempts) == 0 {
		t.Fatal("no attempt recorded")
	}
	last := fw.Attempts[len(fw.Attempts)-1]
	if last.Completed {
		t.Fatalf("terminal attempt marked completed: %+v", last)
	}
	if len(last.Flight) == 0 {
		t.Fatal("terminal attempt has no flight-recorder tail")
	}
	var sawSpan bool
	for _, line := range last.Flight {
		if strings.Contains(line, "open") || strings.Contains(line, "close") {
			sawSpan = true
		}
	}
	if !sawSpan {
		t.Errorf("flight tail has no span events: %v", last.Flight)
	}

	// Completed attempts never carry a tail, recorder or not.
	for _, a := range fw.Attempts {
		if a.Completed && a.Flight != nil {
			t.Errorf("completed attempt carries a flight tail: %+v", a)
		}
	}
}
