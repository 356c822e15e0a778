package check

// shrinkable is what the shrinker reduces: a Scenario or a FleetScenario.
// Valid rejects candidates the runner cannot execute, Fields measures the
// distance from the default spec, and candidates enumerates one-step
// simplifications.
type shrinkable[S any] interface {
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
// fails decides what "still fails" means. Production callers pass Fails or
// FailsFleet (re-run and check invariants); tests pass synthetic predicates
// so the reducer's behavior is checkable without a real protocol bug.
func Shrink[S shrinkable[S]](s S, fails func(S) bool) S {
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

// Fails is the production shrink predicate: re-run the scenario and report
// whether any invariant is violated.
func Fails(sc Scenario) bool { return RunScenario(sc).Failed() }

// candidates enumerates one-step simplifications of sc, most aggressive
// first (dropping a whole fault beats resetting a field).
func (sc Scenario) candidates() []Scenario {
	d := Default()
	var out []Scenario
	for i := range sc.Faults {
		c := sc
		c.Faults = append(append([]FaultSpec{}, sc.Faults[:i]...), sc.Faults[i+1:]...)
		out = append(out, c)
	}
	field := func(mutate func(*Scenario)) {
		c := sc
		c.Faults = append([]FaultSpec{}, sc.Faults...)
		mutate(&c)
		out = append(out, c)
	}
	if sc.Perturb != 0 {
		field(func(c *Scenario) { c.Perturb = 0 })
	}
	if sc.Strategy != "" {
		field(func(c *Scenario) { c.Strategy = "" })
	}
	if sc.Ckpt {
		field(func(c *Scenario) { c.Ckpt = false })
	}
	if sc.Class != d.Class {
		field(func(c *Scenario) { c.Class = d.Class })
	}
	if sc.Kernel != d.Kernel {
		// Resetting the kernel may demand a different rank count (BT/SP run
		// on square grids); try the kernel reset together with the default
		// shape first, then alone.
		field(func(c *Scenario) { c.Kernel, c.Ranks, c.PPN = d.Kernel, d.Ranks, d.PPN })
		field(func(c *Scenario) { c.Kernel = d.Kernel })
	}
	if sc.Ranks != d.Ranks {
		field(func(c *Scenario) { c.Ranks, c.PPN = d.Ranks, d.PPN })
	}
	if sc.PPN != d.PPN {
		field(func(c *Scenario) { c.PPN = d.PPN })
	}
	if sc.Spares != d.Spares {
		field(func(c *Scenario) { c.Spares = d.Spares })
	}
	if sc.TrigPct != d.TrigPct {
		field(func(c *Scenario) { c.TrigPct = d.TrigPct })
	}
	return out
}
