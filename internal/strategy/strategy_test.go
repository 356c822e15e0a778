package strategy

import (
	"reflect"
	"testing"
	"time"
)

// fakeView is a scriptable View.
type fakeView struct {
	spare, src bool
	ranks      map[string]bool
	warns      map[string]int
	replicas   map[string]bool
	retries    int
}

func (v fakeView) SpareAvailable() bool        { return v.spare }
func (v fakeView) SourceUsable() bool          { return v.src }
func (v fakeView) HostsRanks(node string) bool { return v.ranks[node] }
func (v fakeView) WarnCount(node string) int   { return v.warns[node] }
func (v fakeView) HasReplica(node string) bool { return v.replicas[node] }
func (v fakeView) Retries() int                { return v.retries }

func kinds(ds []Decision) []DecisionKind {
	out := make([]DecisionKind, len(ds))
	for i, d := range ds {
		out[i] = d.Kind
	}
	return out
}

func TestByNameRoundTrip(t *testing.T) {
	seen := map[reflect.Type]string{}
	for _, name := range Names() {
		s, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if prev, dup := seen[reflect.TypeOf(s)]; dup {
			t.Fatalf("ByName(%q) and ByName(%q) return the same strategy %T", prev, name, s)
		}
		seen[reflect.TypeOf(s)] = name
	}
	if s, err := ByName(""); err != nil || s != (ProactiveMigrate{}) {
		t.Fatalf("empty name should default to proactive, got %v, %v", s, err)
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("ByName(bogus) should error")
	}
}

// The proactive attempt-failed tree must mirror the Job Manager's historical
// recovery order exactly: retry while source+spare+budget allow, resume in
// place with a distinct exhaustion reason otherwise, CR fallback when the
// source is gone.
func TestProactiveAttemptFailedTree(t *testing.T) {
	s := ProactiveMigrate{}
	ev := Event{Kind: EvAttemptFailed}

	ds := s.Decide(fakeView{src: true, spare: true}, ev)
	if ds[0].Kind != RetrySpare {
		t.Fatalf("usable source + spare: want RetrySpare first, got %v", kinds(ds))
	}
	ds = s.Decide(fakeView{src: true, spare: false}, ev)
	if ds[0].Kind != ResumeInPlace || ds[0].Reason != ReasonSpareExhausted {
		t.Fatalf("no spare: want ResumeInPlace(%s), got %+v", ReasonSpareExhausted, ds)
	}
	ds = s.Decide(fakeView{src: true, spare: true, retries: MaxSpareRetries}, ev)
	if ds[0].Kind != ResumeInPlace || ds[0].Reason != ReasonRetryBudget {
		t.Fatalf("budget spent: want ResumeInPlace(%s), got %+v", ReasonRetryBudget, ds)
	}
	ds = s.Decide(fakeView{src: false}, ev)
	if len(ds) != 1 || ds[0].Kind != RestartCR {
		t.Fatalf("dead source: want RestartCR, got %v", kinds(ds))
	}
}

func TestReactiveIgnoresPredictionsAndSpares(t *testing.T) {
	s := ReactiveCR{}
	if ds := s.Decide(fakeView{}, Event{Kind: EvPredicted, Node: "node03"}); len(ds) != 0 {
		t.Fatalf("reactive must ignore predictions, got %v", kinds(ds))
	}
	ds := s.Decide(fakeView{src: true, spare: true}, Event{Kind: EvAttemptFailed})
	if len(ds) != 1 || ds[0].Kind != ResumeInPlace {
		t.Fatalf("reactive never retries spares, got %v", kinds(ds))
	}
	if ds := s.Decide(fakeView{}, Event{Kind: EvTick}); len(ds) != 1 || ds[0].Kind != Checkpoint {
		t.Fatalf("reactive tick must checkpoint, got %v", kinds(ds))
	}
	if s.CheckpointInterval() <= 0 {
		t.Fatal("reactive needs a periodic checkpoint interval")
	}
	if got := (ReactiveCR{Interval: time.Second}).CheckpointInterval(); got != time.Second {
		t.Fatalf("interval override ignored: %v", got)
	}
}

func TestReplicatePrefersReplicaOnDeath(t *testing.T) {
	s := Replicate{}
	hosts := map[string]bool{"node02": true}
	ds := s.Decide(fakeView{ranks: hosts}, Event{Kind: EvWarn, Node: "node02"})
	if len(ds) != 1 || ds[0].Kind != StageReplica || ds[0].Node != "node02" {
		t.Fatalf("first warn on a rank host must replicate, got %+v", ds)
	}
	if ds := s.Decide(fakeView{ranks: hosts, replicas: map[string]bool{"node02": true}},
		Event{Kind: EvWarn, Node: "node02"}); len(ds) != 0 {
		t.Fatalf("already replicated: want no decision, got %v", kinds(ds))
	}
	ds = s.Decide(fakeView{ranks: hosts}, Event{Kind: EvNodeDown, Node: "node02"})
	want := []DecisionKind{RestoreReplica, RestartCR}
	if len(ds) != 2 || ds[0].Kind != want[0] || ds[1].Kind != want[1] {
		t.Fatalf("death: want %v, got %v", want, kinds(ds))
	}
	if ds := s.Decide(fakeView{}, Event{Kind: EvNodeDown, Node: "spare01"}); len(ds) != 0 {
		t.Fatalf("death of rankless node: want no decision, got %v", kinds(ds))
	}
}

func TestAdaptiveHedges(t *testing.T) {
	s := Adaptive{}
	hosts := map[string]bool{"node02": true}
	if ds := s.Decide(fakeView{ranks: hosts}, Event{Kind: EvPredicted, Node: "node02"}); ds[0].Kind != Migrate {
		t.Fatalf("adaptive must migrate on prediction, got %v", kinds(ds))
	}
	if ds := s.Decide(fakeView{ranks: hosts, warns: map[string]int{"node02": 2}},
		Event{Kind: EvWarn, Node: "node02"}); len(ds) != 0 {
		t.Fatalf("2 warns below threshold: want nothing, got %v", kinds(ds))
	}
	if ds := s.Decide(fakeView{ranks: hosts, warns: map[string]int{"node02": 3}},
		Event{Kind: EvWarn, Node: "node02"}); len(ds) != 1 || ds[0].Kind != StageReplica {
		t.Fatalf("3 warns: want StageReplica, got %v", kinds(ds))
	}
	if ds := s.Decide(fakeView{}, Event{Kind: EvTick}); len(ds) != 1 || ds[0].Kind != Checkpoint {
		t.Fatalf("adaptive tick must checkpoint, got %v", kinds(ds))
	}
}

func TestBackoffDelays(t *testing.T) {
	// want[i] is the delay before retry i+1, in milliseconds.
	want := []time.Duration{0, 25, 50, 100, 200, 400, 500, 500}
	for i, ms := range want {
		if d := RetryDelay(i + 1); d != ms*time.Millisecond {
			t.Errorf("RetryDelay(%d) = %v, want %v", i+1, d, ms*time.Millisecond)
		}
	}
	if d := RetryDelay(200); d != 500*time.Millisecond {
		t.Fatalf("RetryDelay(200) = %v, want cap 500ms", d)
	}
}
