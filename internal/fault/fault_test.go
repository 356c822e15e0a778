package fault

import (
	"strings"
	"testing"
	"time"

	"ibmig/internal/cluster"
	"ibmig/internal/ftb"
	"ibmig/internal/sim"
)

func testCluster(t *testing.T) (*sim.Engine, *cluster.Cluster) {
	t.Helper()
	e := sim.NewEngine(1)
	return e, cluster.New(e, cluster.Config{ComputeNodes: 2, SpareNodes: 1})
}

func TestAtInjectsAtAbsoluteTime(t *testing.T) {
	e, c := testCluster(t)
	in := NewInjector(c)
	in.At(sim.Time(500*time.Millisecond), Spec{Kind: DiskFail, Node: "node01"})
	in.At(sim.Time(700*time.Millisecond), Spec{Kind: HCAFail, Node: "node02"})
	var at600, at800 bool
	e.Spawn("probe", func(p *sim.Proc) {
		p.Sleep(600 * time.Millisecond)
		at600 = c.Node("node01").FS.Disk().Failed() && !c.Node("node02").HCA.Failed()
		p.Sleep(200 * time.Millisecond)
		at800 = c.Node("node02").HCA.Failed()
	})
	if err := e.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if !at600 {
		t.Error("disk fault did not land at its scheduled time (or the HCA fault fired early)")
	}
	if !at800 {
		t.Error("HCA fault did not land at its scheduled time")
	}
	if len(in.Applied) != 2 {
		t.Errorf("Applied = %v, want 2 entries", in.Applied)
	}
}

// fakePhases satisfies PhaseSource for anchoring tests.
type fakePhases struct {
	fns []func(p *sim.Proc, seq, phase int)
}

func (f *fakePhases) OnPhase(fn func(p *sim.Proc, seq, phase int)) {
	f.fns = append(f.fns, fn)
}

func (f *fakePhases) enter(p *sim.Proc, seq, phase int) {
	for _, fn := range f.fns {
		fn(p, seq, phase)
	}
}

func TestAtPhaseFiresOnMatchingPhaseOnly(t *testing.T) {
	e, c := testCluster(t)
	in := NewInjector(c)
	src := &fakePhases{}
	in.Bind(src)
	in.AtPhase(1, 3, Spec{Kind: NodeCrash, Node: "node02"})
	e.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond)
		src.enter(p, 1, 1)
		src.enter(p, 1, 2)
		if !c.NodeAlive("node02") {
			t.Error("fault fired before its phase")
		}
		src.enter(p, 2, 3) // wrong attempt
		if !c.NodeAlive("node02") {
			t.Error("fault fired on the wrong attempt")
		}
		src.enter(p, 1, 3)
		if c.NodeAlive("node02") {
			t.Error("fault did not fire at its phase")
		}
	})
	if err := e.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
}

func TestAtPhaseSeqZeroMatchesAnyAttemptOnce(t *testing.T) {
	e, c := testCluster(t)
	in := NewInjector(c)
	src := &fakePhases{}
	in.Bind(src)
	in.AtPhase(0, 2, Spec{Kind: DiskFail, Node: "node01"})
	e.Spawn("driver", func(p *sim.Proc) {
		src.enter(p, 7, 2)
		if !c.Node("node01").FS.Disk().Failed() {
			t.Error("seq-0 fault did not fire")
		}
		src.enter(p, 8, 2) // one-shot: must not re-apply
	})
	if err := e.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if len(in.Applied) != 1 {
		t.Errorf("Applied = %v, want exactly one injection", in.Applied)
	}
}

func TestFTBDropIsOneShot(t *testing.T) {
	e, c := testCluster(t)
	in := NewInjector(c)
	sub := c.FTB.Connect("login", "obs").Subscribe("app", "")
	pub := c.FTB.Connect("node01", "pub")
	e.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond)
		in.Apply(p, Spec{Kind: FTBDrop, Event: "PING"})
		pub.Publish(p, ftb.Event{Namespace: "app", Name: "PING"}) // swallowed
		p.Sleep(20 * time.Millisecond)
		pub.Publish(p, ftb.Event{Namespace: "app", Name: "PING"}) // delivered
	})
	if err := e.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if got := sub.Pending(); got != 1 {
		t.Fatalf("delivered %d PINGs, want 1 (first dropped)", got)
	}
	if c.FTB.Dropped != 1 {
		t.Errorf("backplane Dropped = %d, want 1", c.FTB.Dropped)
	}
}

func TestFTBDelayHoldsEvent(t *testing.T) {
	e, c := testCluster(t)
	in := NewInjector(c)
	sub := c.FTB.Connect("login", "obs").Subscribe("app", "")
	pub := c.FTB.Connect("node01", "pub")
	const hold = 200 * time.Millisecond
	var sent, arrived sim.Time
	e.Spawn("listen", func(p *sim.Proc) {
		if _, ok := sub.Recv(p); ok {
			arrived = p.Now()
		}
	})
	e.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond)
		in.Apply(p, Spec{Kind: FTBDelay, Event: "PING", Delay: hold})
		sent = p.Now()
		pub.Publish(p, ftb.Event{Namespace: "app", Name: "PING"})
	})
	if err := e.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if arrived == 0 {
		t.Fatal("delayed event never arrived")
	}
	if lag := arrived.Sub(sent); lag < hold {
		t.Errorf("event arrived after %v, want >= %v", lag, hold)
	}
}

func TestNodeCrashSpec(t *testing.T) {
	e, c := testCluster(t)
	in := NewInjector(c)
	e.Spawn("driver", func(p *sim.Proc) {
		p.Sleep(20 * time.Millisecond)
		in.Apply(p, Spec{Kind: NodeCrash, Node: "node02"})
	})
	if err := e.RunUntil(sim.Time(time.Second)); err != nil {
		t.Fatal(err)
	}
	e.Shutdown()
	if c.NodeAlive("node02") {
		t.Fatal("NodeCrash left the node alive")
	}
}

func TestMigrationFaultNames(t *testing.T) {
	cases := []struct {
		name string
		want Spec
	}{
		{"src-crash", Spec{Kind: NodeCrash, Node: "src"}},
		{"tgt-crash", Spec{Kind: NodeCrash, Node: "tgt"}},
		{"link", Spec{Kind: HCAFail, Node: "tgt"}},
		{"disk", Spec{Kind: DiskFail, Node: "tgt"}},
		{"drop-restart", Spec{Kind: FTBDrop, Event: ftb.EventRestart}},
	}
	for _, tc := range cases {
		got, err := MigrationFault(tc.name, "src", "tgt")
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s = %+v, want %+v", tc.name, got, tc.want)
		}
	}
	if len(cases) != len(migrationFaults) {
		t.Errorf("table covers %d names, %d registered", len(cases), len(migrationFaults))
	}
	if _, err := MigrationFault("meteor", "src", "tgt"); err == nil || !strings.Contains(err.Error(), `"meteor"`) {
		t.Errorf("unknown name: err = %v, want an error naming it", err)
	}
}
