// Package check is the deterministic simulation-testing (DST) harness, in
// the FoundationDB style: a registry of protocol invariants (invariants.go),
// a seeded generator of random fault × workload × timing scenarios
// (scenario.go), a driver that executes one scenario and evaluates every
// invariant against the run (run.go), a shrinker that minimizes a failing
// scenario to the smallest reproducing spec (shrink.go), and a parallel
// N-scenario sweep (sweep.go) behind cmd/protocheck.
//
// Everything is a pure function of the scenario: the same Scenario always
// produces the same trace, the same violations, and the same shrink result,
// so every failure is a one-liner repro (`protocheck -spec "..."`).
package check

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"ibmig/internal/fault"
	"ibmig/internal/npb"
	"ibmig/internal/sim"
	"ibmig/internal/strategy"
)

// Role names a fault victim relative to the migration, so a scenario is
// meaningful regardless of cluster size: the source node being migrated away
// from, the Job Manager's first-pick target spare, the second spare (the
// retry destination), or an uninvolved compute node.
type Role int

// Fault victim roles.
const (
	RoleSource Role = iota
	RoleTarget
	RoleSpare2
	RoleBystander
)

func (r Role) String() string {
	switch r {
	case RoleSource:
		return "src"
	case RoleTarget:
		return "tgt"
	case RoleSpare2:
		return "spare2"
	case RoleBystander:
		return "other"
	}
	return "unknown"
}

func parseRole(s string) (Role, error) {
	for _, r := range []Role{RoleSource, RoleTarget, RoleSpare2, RoleBystander} {
		if r.String() == s {
			return r, nil
		}
	}
	return 0, fmt.Errorf("check: unknown role %q", s)
}

// FaultSpec is one injected fault, anchored either at the entry of a
// migration phase (any attempt) or at an absolute sim time. Node faults
// (crash/HCA/disk) name a Role; FTB faults (drop/delay) name one of the four
// migration-protocol events.
//
// A phase anchor (`@2`) only ever fires inside a migration, so it can never
// probe the windows before the trigger or after completion; an absolute
// anchor (`@t250`, sim milliseconds from t=0) lands wherever the clock says,
// including squarely outside any attempt.
type FaultSpec struct {
	Kind    fault.Kind `json:"kind"`
	Role    Role       `json:"role,omitempty"`     // crash / hca / disk victims
	Event   string     `json:"event,omitempty"`    // ftb-drop / ftb-delay target
	DelayMS int        `json:"delay_ms,omitempty"` // ftb-delay hold time
	Phase   int        `json:"phase,omitempty"`    // 1..4 anchor (0 with AtMS set)
	AtMS    int        `json:"at_ms,omitempty"`    // absolute sim-time anchor, ms
}

// anchor renders the fault's timing: "@N" for phase anchors, "@tN" for
// absolute sim-time anchors.
func (f FaultSpec) anchor() string {
	if f.AtMS > 0 {
		return fmt.Sprintf("@t%d", f.AtMS)
	}
	return fmt.Sprintf("@%d", f.Phase)
}

func (f FaultSpec) String() string {
	switch f.Kind {
	case fault.FTBDrop:
		return fmt.Sprintf("%v:%s%s", f.Kind, f.Event, f.anchor())
	case fault.FTBDelay:
		return fmt.Sprintf("%v:%s:%d%s", f.Kind, f.Event, f.DelayMS, f.anchor())
	}
	return fmt.Sprintf("%v:%v%s", f.Kind, f.Role, f.anchor())
}

// migration-protocol events a scenario may drop or delay. MIGRATE_REQUEST is
// deliberately absent: dropping the trigger itself just means no migration
// happens — nothing to check — and the driver would wait forever.
var ftbEvents = []string{
	"FTB_MIGRATE",
	"FTB_MIGRATE_PIIC",
	"FTB_RESTART",
	"FTB_RESTART_DONE",
}

var faultKinds = map[string]fault.Kind{
	fault.NodeCrash.String(): fault.NodeCrash,
	fault.HCAFail.String():   fault.HCAFail,
	fault.DiskFail.String():  fault.DiskFail,
	fault.FTBDrop.String():   fault.FTBDrop,
	fault.FTBDelay.String():  fault.FTBDelay,
	fault.RackFail.String():  fault.RackFail,
	fault.LinkFlap.String():  fault.LinkFlap,
}

func parseFault(s string) (FaultSpec, error) {
	var f FaultSpec
	body, anchor, ok := strings.Cut(s, "@")
	if !ok {
		return f, fmt.Errorf("check: fault %q: missing @phase or @tMS anchor", s)
	}
	var err error
	if ms, abs := strings.CutPrefix(anchor, "t"); abs {
		if f.AtMS, err = strconv.Atoi(ms); err != nil {
			return f, fmt.Errorf("check: fault %q: bad absolute anchor: %v", s, err)
		}
		if f.AtMS <= 0 {
			// FaultSpec reads AtMS 0 as "phase anchor", so @t0 would come
			// back as @0.
			return f, fmt.Errorf("check: fault %q: absolute anchor must be a positive number of ms", s)
		}
	} else if f.Phase, err = strconv.Atoi(anchor); err != nil {
		return f, fmt.Errorf("check: fault %q: bad phase: %v", s, err)
	}
	parts := strings.Split(body, ":")
	kind, known := faultKinds[parts[0]]
	if !known {
		return f, fmt.Errorf("check: fault %q: unknown kind %q", s, parts[0])
	}
	f.Kind = kind
	switch kind {
	case fault.FTBDrop:
		if len(parts) != 2 {
			return f, fmt.Errorf("check: fault %q: want kind:EVENT@phase", s)
		}
		f.Event = parts[1]
	case fault.FTBDelay:
		if len(parts) != 3 {
			return f, fmt.Errorf("check: fault %q: want kind:EVENT:delayms@phase", s)
		}
		f.Event = parts[1]
		if f.DelayMS, err = strconv.Atoi(parts[2]); err != nil {
			return f, fmt.Errorf("check: fault %q: bad delay: %v", s, err)
		}
	default:
		if len(parts) != 2 {
			return f, fmt.Errorf("check: fault %q: want kind:role@phase", s)
		}
		if f.Role, err = parseRole(parts[1]); err != nil {
			return f, err
		}
	}
	return f, nil
}

// Scenario is one fully-specified DST run: workload, cluster shape, trigger
// timing, checkpoint policy, schedule perturbation, and fault schedule. The
// zero-ish Default() scenario is a clean 8-rank LU.S migration.
type Scenario struct {
	Seed     int64       `json:"seed"`               // engine RNG seed
	Kernel   npb.Kernel  `json:"kernel"`             // LU / BT / SP
	Class    npb.Class   `json:"class"`              // S / W
	Ranks    int         `json:"ranks"`              //
	PPN      int         `json:"ppn"`                // ranks per node
	Spares   int         `json:"spares"`             // hot-spare nodes (1..3)
	TrigPct  int         `json:"trig_pct"`           // trigger at % of estimated runtime
	Ckpt     bool        `json:"ckpt"`               // take a full-job checkpoint first
	Perturb  int64       `json:"perturb,omitempty"`  // schedule-perturbation seed; 0 = off
	Strategy string      `json:"strategy,omitempty"` // fault-tolerance policy; "" = proactive
	Faults   []FaultSpec `json:"faults,omitempty"`
}

// Default is the baseline scenario every spec field shrinks toward: a clean
// migration of one 8-rank LU.S job, two spares, trigger a third in.
func Default() Scenario {
	return Scenario{
		Seed:    1,
		Kernel:  npb.LU,
		Class:   npb.ClassS,
		Ranks:   8,
		PPN:     2,
		Spares:  2,
		TrigPct: 33,
	}
}

// String renders the scenario as a one-line spec: only fields differing from
// Default() are emitted (plus the seed), so shrunk scenarios read minimal.
// Parse round-trips it.
func (sc Scenario) String() string {
	d := Default()
	parts := []string{fmt.Sprintf("seed=%d", sc.Seed)}
	add := func(cond bool, s string) {
		if cond {
			parts = append(parts, s)
		}
	}
	add(sc.Kernel != d.Kernel, fmt.Sprintf("k=%s", sc.Kernel))
	add(sc.Class != d.Class, fmt.Sprintf("c=%c", sc.Class))
	add(sc.Ranks != d.Ranks, fmt.Sprintf("r=%d", sc.Ranks))
	add(sc.PPN != d.PPN, fmt.Sprintf("ppn=%d", sc.PPN))
	add(sc.Spares != d.Spares, fmt.Sprintf("sp=%d", sc.Spares))
	add(sc.TrigPct != d.TrigPct, fmt.Sprintf("trig=%d", sc.TrigPct))
	add(sc.Ckpt, "ckpt")
	add(sc.Perturb != 0, fmt.Sprintf("perturb=%d", sc.Perturb))
	add(sc.Strategy != "", "strat="+sc.Strategy)
	for _, f := range sc.Faults {
		parts = append(parts, "f="+f.String())
	}
	return strings.Join(parts, " ")
}

// Parse reads a spec produced by String (whitespace-separated key=value
// tokens; unspecified fields take their Default() values).
func Parse(spec string) (Scenario, error) {
	sc := Default()
	sc.Faults = nil
	for _, tok := range strings.Fields(spec) {
		key, val, _ := strings.Cut(tok, "=")
		var err error
		switch key {
		case "seed":
			sc.Seed, err = strconv.ParseInt(val, 10, 64)
		case "k":
			sc.Kernel = npb.Kernel(val)
		case "c":
			if len(val) != 1 {
				return sc, fmt.Errorf("check: bad class %q", val)
			}
			sc.Class = npb.Class(val[0])
		case "r":
			sc.Ranks, err = strconv.Atoi(val)
		case "ppn":
			sc.PPN, err = strconv.Atoi(val)
		case "sp":
			sc.Spares, err = strconv.Atoi(val)
		case "trig":
			sc.TrigPct, err = strconv.Atoi(val)
		case "ckpt":
			sc.Ckpt = true
		case "perturb":
			sc.Perturb, err = strconv.ParseInt(val, 10, 64)
		case "strat":
			sc.Strategy = val
		case "f":
			var f FaultSpec
			if f, err = parseFault(val); err == nil {
				sc.Faults = append(sc.Faults, f)
			}
		default:
			return sc, fmt.Errorf("check: unknown spec token %q", tok)
		}
		if err != nil {
			return sc, fmt.Errorf("check: token %q: %v", tok, err)
		}
	}
	return sc, sc.Valid()
}

// Fields counts the spec fields that differ from Default() (the seed does
// not count; each fault counts as one). The shrinker minimizes this.
func (sc Scenario) Fields() int {
	d := Default()
	n := len(sc.Faults)
	for _, diff := range []bool{
		sc.Kernel != d.Kernel, sc.Class != d.Class, sc.Ranks != d.Ranks,
		sc.PPN != d.PPN, sc.Spares != d.Spares, sc.TrigPct != d.TrigPct,
		sc.Ckpt, sc.Perturb != 0, sc.Strategy != "",
	} {
		if diff {
			n++
		}
	}
	return n
}

// Valid reports whether the scenario is within the supported envelope. The
// generator only emits valid scenarios and the shrinker discards invalid
// candidates, so RunScenario never sees an unsupported combination (e.g. a
// bystander crash, which is reactive-FT territory the framework does not
// claim to survive).
func (sc Scenario) Valid() error {
	switch sc.Kernel {
	case npb.LU:
	case npb.BT, npb.SP:
		if n := int(isqrt(sc.Ranks)); n*n != sc.Ranks {
			return fmt.Errorf("check: %s needs a square rank count, got %d", sc.Kernel, sc.Ranks)
		}
	default:
		return fmt.Errorf("check: unknown kernel %q", sc.Kernel)
	}
	switch sc.Class {
	case npb.ClassS, npb.ClassW:
	default:
		return fmt.Errorf("check: class %c out of the DST envelope (S, W)", sc.Class)
	}
	if sc.Ranks < 4 || sc.Ranks > 64 {
		return fmt.Errorf("check: ranks %d out of range [4,64]", sc.Ranks)
	}
	if sc.PPN < 1 || sc.Ranks%sc.PPN != 0 {
		return fmt.Errorf("check: ppn %d does not divide ranks %d", sc.PPN, sc.Ranks)
	}
	if sc.Ranks/sc.PPN < 2 {
		return fmt.Errorf("check: need at least 2 compute nodes, got %d", sc.Ranks/sc.PPN)
	}
	if sc.Spares < 1 || sc.Spares > 3 {
		return fmt.Errorf("check: spares %d out of range [1,3]", sc.Spares)
	}
	if sc.TrigPct < 5 || sc.TrigPct > 90 {
		return fmt.Errorf("check: trigger %%%d out of range [5,90]", sc.TrigPct)
	}
	if _, err := strategy.ByName(sc.Strategy); err != nil {
		return fmt.Errorf("check: %v", err)
	}
	for _, f := range sc.Faults {
		switch {
		case f.AtMS > 0:
			if f.Phase != 0 {
				return fmt.Errorf("check: fault %v: phase and absolute anchors are exclusive", f)
			}
			if f.AtMS > 5000 {
				return fmt.Errorf("check: fault %v: absolute anchor beyond the 5 s DST envelope", f)
			}
		case f.Phase < 1 || f.Phase > 4:
			return fmt.Errorf("check: fault %v: phase out of range", f)
		}
		switch f.Kind {
		case fault.NodeCrash, fault.HCAFail, fault.RackFail, fault.LinkFlap:
			// Crashing a node the migration does not involve kills
			// unprotected ranks — the framework's docs scope that out, so
			// the generator does too. (Rack failures DO take bystanders down
			// with the victim's rack; surviving them is the reactive
			// strategies' job, and losing the job to one is legitimate.)
			if f.Role == RoleBystander {
				return fmt.Errorf("check: fault %v: crash/hca/rack/flap limited to src/tgt/spare2", f)
			}
			fallthrough
		case fault.DiskFail:
			if f.Role == RoleSpare2 && sc.Spares < 2 {
				return fmt.Errorf("check: fault %v: no second spare in a %d-spare cluster", f, sc.Spares)
			}
		case fault.FTBDrop, fault.FTBDelay:
			ok := false
			for _, ev := range ftbEvents {
				ok = ok || ev == f.Event
			}
			if !ok {
				return fmt.Errorf("check: fault %v: event %q not in the migration protocol", f, f.Event)
			}
			if f.Kind == fault.FTBDelay && (f.DelayMS < 1 || f.DelayMS > 500) {
				return fmt.Errorf("check: fault %v: delay out of range [1,500] ms", f)
			}
		}
	}
	return nil
}

func isqrt(n int) int {
	for i := 0; i*i <= n; i++ {
		if i*i == n {
			return i
		}
	}
	return 0
}

// rankChoices lists the rank counts the generator draws from per kernel
// (BT/SP require square process grids, as real NPB does).
func rankChoices(k npb.Kernel) []int {
	if k == npb.BT || k == npb.SP {
		return []int{4, 9, 16}
	}
	return []int{4, 8, 16}
}

// Generate derives a random valid scenario from the seed. The same seed
// always yields the same scenario; the scenario's engine seed is the
// generator seed, so one integer pins the whole run.
func Generate(seed int64) Scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := Scenario{Seed: seed}
	kernels := []npb.Kernel{npb.LU, npb.LU, npb.BT, npb.SP} // LU weighted: the paper's primary kernel
	sc.Kernel = kernels[rng.Intn(len(kernels))]
	sc.Class = npb.ClassS
	if rng.Intn(5) == 0 {
		sc.Class = npb.ClassW
	}
	choices := rankChoices(sc.Kernel)
	sc.Ranks = choices[rng.Intn(len(choices))]
	var ppns []int
	for _, ppn := range []int{1, 2, 3, 4, 8} {
		if sc.Ranks%ppn == 0 && sc.Ranks/ppn >= 2 {
			ppns = append(ppns, ppn)
		}
	}
	sc.PPN = ppns[rng.Intn(len(ppns))]
	sc.Spares = 1 + rng.Intn(3)
	sc.TrigPct = 10 + rng.Intn(71)
	sc.Ckpt = rng.Intn(5) < 2
	if rng.Intn(2) == 0 {
		sc.Perturb = 1 + rng.Int63n(1<<31)
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		sc.Faults = append(sc.Faults, randomFault(rng, sc))
	}
	sortFaults(sc.Faults)
	if err := sc.Valid(); err != nil {
		panic("check: generator produced invalid scenario: " + err.Error())
	}
	return sc
}

func randomFault(rng *rand.Rand, sc Scenario) FaultSpec {
	f := FaultSpec{Phase: 1 + rng.Intn(4)}
	// A quarter of faults anchor at an absolute sim time instead of a
	// migration phase, probing the windows a phase anchor can never hit
	// (before the trigger, between attempts, after completion).
	if rng.Intn(4) == 0 {
		f.Phase, f.AtMS = 0, 1+rng.Intn(400)
	}
	kinds := []fault.Kind{
		fault.NodeCrash, fault.HCAFail, fault.DiskFail,
		fault.FTBDrop, fault.FTBDelay, fault.RackFail, fault.LinkFlap,
	}
	f.Kind = kinds[rng.Intn(len(kinds))]
	switch f.Kind {
	case fault.FTBDrop:
		f.Event = ftbEvents[rng.Intn(len(ftbEvents))]
	case fault.FTBDelay:
		f.Event = ftbEvents[rng.Intn(len(ftbEvents))]
		f.DelayMS = 1 + rng.Intn(300)
		if f.DelayMS > 500 {
			f.DelayMS = 500
		}
	default:
		roles := []Role{RoleSource, RoleTarget}
		if sc.Spares >= 2 {
			roles = append(roles, RoleSpare2)
		}
		if f.Kind == fault.DiskFail {
			roles = append(roles, RoleBystander)
		}
		f.Role = roles[rng.Intn(len(roles))]
	}
	return f
}

// sortFaults orders faults deterministically (absolute anchors first by
// time, then phase anchors by phase, then rendering) so a scenario's spec
// string is canonical regardless of generation order.
func sortFaults(fs []FaultSpec) {
	sort.SliceStable(fs, func(i, j int) bool {
		ai, aj := fs[i].AtMS > 0, fs[j].AtMS > 0
		if ai != aj {
			return ai
		}
		if ai {
			if fs[i].AtMS != fs[j].AtMS {
				return fs[i].AtMS < fs[j].AtMS
			}
		} else if fs[i].Phase != fs[j].Phase {
			return fs[i].Phase < fs[j].Phase
		}
		return fs[i].String() < fs[j].String()
	})
}

// delay converts a FaultSpec's DelayMS to the injector's duration.
func (f FaultSpec) delay() sim.Duration {
	return time.Duration(f.DelayMS) * time.Millisecond
}
