package check

// spec is what the shared harness needs of a spec kind's scenario type
// (Scenario, FleetScenario): Valid rejects specs the runner cannot execute,
// Fields measures the distance from the kind's default, and candidates
// enumerates one-step simplifications. The last three come from the kind's
// field table (spec.go).
type spec[S any] interface {
	String() string
	Valid() error
	Fields() int
	candidates() []S
}

// Shrink greedily minimizes a failing spec: it tries candidate
// simplifications (drop a fault, reset a field to its default value) and
// keeps any valid candidate that still fails, looping to a fixed point. The
// result is the smallest spec this reducer can reach that still reproduces
// the failure — typically 1–3 fields plus the seed.
//
// fails decides what "still fails" means. The sweep and replay paths re-run
// the spec and check invariants; tests pass synthetic predicates so the
// reducer's behavior is checkable without a real protocol bug.
func Shrink[S spec[S]](s S, fails func(S) bool) S {
	if !fails(s) {
		return s
	}
	cur := s
	for changed := true; changed; {
		changed = false
		for _, cand := range cur.candidates() {
			if cand.Valid() != nil || cand.Fields() >= cur.Fields() {
				continue
			}
			if fails(cand) {
				cur = cand
				changed = true
				break
			}
		}
	}
	return cur
}
