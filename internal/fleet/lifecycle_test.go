package fleet

import (
	"testing"
	"time"

	"ibmig/internal/sim"
)

// allStates enumerates every lifecycle state once.
var allStates = []NodeState{StateActive, StateCordoned, StateDraining, StateSpare, StateFailed, StateRepaired}

// legalPairs is the lifecycle table written out long-hand, independently of
// the production `legal` array, so a typo there cannot self-validate.
var legalPairs = map[[2]NodeState]bool{
	{StateActive, StateCordoned}:   true,
	{StateActive, StateFailed}:     true,
	{StateCordoned, StateActive}:   true,
	{StateCordoned, StateDraining}: true,
	{StateCordoned, StateFailed}:   true,
	{StateDraining, StateSpare}:    true,
	{StateDraining, StateFailed}:   true,
	{StateSpare, StateActive}:      true,
	{StateSpare, StateFailed}:      true,
	{StateFailed, StateRepaired}:   true,
	{StateRepaired, StateSpare}:    true,
}

func tinySystem(t *testing.T) *System {
	t.Helper()
	e := sim.NewEngine(1)
	return New(e, Config{Nodes: 8, RackSize: 4, SpareFrac: 0.125})
}

// TestLifecycleTable drives every (from, to) pair through System.to: the
// legal ones must commit state, timestamp, and the transition counter (and
// only that counter); every illegal one must panic.
func TestLifecycleTable(t *testing.T) {
	for _, from := range allStates {
		for _, to := range allStates {
			from, to := from, to
			legal := legalPairs[[2]NodeState{from, to}]
			if got := LegalTransition(from, to); got != legal {
				t.Fatalf("LegalTransition(%v, %v) = %v, want %v", from, to, got, legal)
			}
			s := tinySystem(t)
			n := s.Nodes[0]
			n.State = from
			if !legal {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%v -> %v: expected panic, got none", from, to)
						}
					}()
					s.to(42, n, to)
				}()
				continue
			}
			s.to(42, n, to)
			if n.State != to || n.Since != 42 {
				t.Errorf("%v -> %v: state=%v since=%v", from, to, n.State, n.Since)
			}
			for f := range s.Transitions {
				for x, n := range s.Transitions[f] {
					want := uint64(0)
					if NodeState(f) == from && NodeState(x) == to {
						want = 1
					}
					if n != want {
						t.Errorf("%v -> %v: Transitions[%v][%v] = %d, want %d", from, to, NodeState(f), NodeState(x), n, want)
					}
				}
			}
		}
	}
}

func TestLegalTransitionOutOfRange(t *testing.T) {
	if LegalTransition(-1, StateActive) || LegalTransition(StateActive, NodeState(numStates)) {
		t.Fatal("out-of-range states must never be legal")
	}
}

func TestNodeStateStrings(t *testing.T) {
	want := []string{"active", "cordoned", "draining", "spare", "failed", "repaired"}
	for i, st := range allStates {
		if st.String() != want[i] {
			t.Errorf("state %d: %q, want %q", i, st.String(), want[i])
		}
	}
	if NodeState(99).String() != "unknown" {
		t.Error("out-of-range state should print unknown")
	}
}

// checkConservation asserts the hard bookkeeping identities on a finished
// system: node-time sums to exactly fleet capacity, active time splits into
// busy and free, the pool mirrors the spare states, and every job carries a
// terminal reason.
func checkConservation(t *testing.T, s *System, horizon sim.Duration) {
	t.Helper()
	var total int64
	for _, ns := range s.StateNS {
		total += ns
	}
	if want := int64(s.Cfg.Nodes) * int64(horizon); total != want {
		t.Errorf("state time %d != fleet capacity %d", total, want)
	}
	if s.BusyNS+s.FreeNS != s.StateNS[StateActive] {
		t.Errorf("busy %d + free %d != active %d", s.BusyNS, s.FreeNS, s.StateNS[StateActive])
	}
	spares := 0
	for _, n := range s.Nodes {
		if n.State == StateSpare {
			spares++
		}
	}
	if spares != len(s.pool) {
		t.Errorf("%d spare-state nodes but pool holds %d", spares, len(s.pool))
	}
	for _, j := range s.Jobs {
		if j.Reason == "" {
			t.Errorf("job %d (%v) has no terminal reason", j.ID, j.State)
		}
		if int64(j.Done) != j.UsefulNS {
			t.Errorf("job %d: durable %d != useful %d", j.ID, int64(j.Done), j.UsefulNS)
		}
		if j.Done > j.Spec.Work {
			t.Errorf("job %d: overshot its work: %v > %v", j.ID, j.Done, j.Spec.Work)
		}
	}
}

// TestSoak10kNodes30Days is the seeded scale soak: 10k nodes, 30 simulated
// days, autoscaled pool, a few thousand jobs. Gated behind -short.
func TestSoak10kNodes30Days(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-node soak skipped in -short mode")
	}
	cfg := Config{
		Nodes:      10000,
		RackSize:   16,
		NodeMTBF:   4 * day,
		RepairMean: 8 * time.Hour,
		AutoScale:  true,
		Horizon:    30 * day,
		Jobs:       2500,
		MaxWidth:   64,
		MeanWork:   24 * time.Hour,
		ArriveFrac: 0.8,
		Seed:       7,
	}
	e := sim.NewEngine(cfg.Seed)
	s := New(e, cfg)
	res := s.Run()
	checkConservation(t, s, cfg.Horizon)
	if res.JobsCompleted < cfg.Jobs/2 {
		t.Errorf("only %d/%d jobs completed — fleet is not absorbing its failure rate", res.JobsCompleted, cfg.Jobs)
	}
	if res.Interrupts == 0 || res.Drains == 0 {
		t.Errorf("soak saw no failures (%d) or drains (%d); schedule generation is off", res.Interrupts, res.Drains)
	}
	if res.GoodputPct <= 0 || res.GoodputPct > 100 {
		t.Errorf("goodput %.2f%% out of range", res.GoodputPct)
	}
	t.Logf("soak: goodput %.1f%% interrupts %d drains %d completed %d/%d pool target %d",
		res.GoodputPct, res.Interrupts, res.Drains, res.JobsCompleted, cfg.Jobs, s.SpareTarget())
}
