// Package fault is the deterministic fault-injection subsystem: it schedules
// hardware and messaging failures against the simulated cluster, driven
// entirely by the virtual clock, so every failure scenario replays
// identically. Faults land either at an absolute simulation time (At) or at
// the entry of a specific migration phase (AtPhase, anchored through a
// PhaseSource such as core.Framework) — the anchors the recovery machinery in
// internal/core is tested against.
package fault

import (
	"fmt"
	"strings"

	"ibmig/internal/cluster"
	"ibmig/internal/ftb"
	"ibmig/internal/sim"
)

// Kind selects what breaks.
type Kind int

// Fault kinds.
const (
	// NodeCrash kills a node outright: processes, adapter, disk and FTB
	// agent all at once (cluster.KillNode).
	NodeCrash Kind = iota
	// HCAFail breaks a node's InfiniBand adapter (and with it every link it
	// terminates): in-flight verbs return errors instead of completing. The
	// node itself stays up — the GigE maintenance network and local disk
	// keep working.
	HCAFail
	// DiskFail fails a node's local disk: writes error, reads of cached data
	// still succeed.
	DiskFail
	// FTBDrop silently discards the next published FTB event with the given
	// name (a lost notification).
	FTBDrop
	// FTBDelay holds the next published FTB event with the given name for
	// Delay before delivering it.
	FTBDelay
	// RackFail is a correlated failure: every node in the victim's rack
	// (switch domain, cluster.RackMembers) crashes at the same instant — a
	// rack PDU or top-of-rack switch loss. Without rack topology it
	// degenerates to a single NodeCrash.
	RackFail
	// LinkFlap repeatedly downs and restores a node's IB link on a
	// deterministic schedule: Flaps cycles of (fail, hold Delay, recover,
	// hold Gap). Connections broken while the link is down stay broken —
	// the retry paths in ib/mpi must rebuild them. A flap never resurrects
	// the adapter of a node that has crashed in the meantime.
	LinkFlap
)

func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case HCAFail:
		return "hca-fail"
	case DiskFail:
		return "disk-fail"
	case FTBDrop:
		return "ftb-drop"
	case FTBDelay:
		return "ftb-delay"
	case RackFail:
		return "rack-fail"
	case LinkFlap:
		return "link-flap"
	}
	return "unknown"
}

// Spec describes one fault. Node names the victim for NodeCrash / HCAFail /
// DiskFail / RackFail / LinkFlap; Event names the FTB event for FTBDrop /
// FTBDelay; Delay is the hold time for FTBDelay and the link-down time per
// LinkFlap cycle; Flaps and Gap shape the LinkFlap schedule.
type Spec struct {
	Kind  Kind
	Node  string
	Event string
	Delay sim.Duration

	// Flaps is the number of down/up cycles for LinkFlap (default 3).
	Flaps int
	// Gap is the link-up hold between LinkFlap cycles (default 30ms).
	Gap sim.Duration
}

func (sp Spec) String() string {
	if sp.Kind == FTBDrop || sp.Kind == FTBDelay {
		return fmt.Sprintf("%v(%s)", sp.Kind, sp.Event)
	}
	return fmt.Sprintf("%v(%s)", sp.Kind, sp.Node)
}

// migrationFaults are the named faults the command-line tools (migsim,
// obsserve) can land on one migration from node src to the spare tgt.
var migrationFaults = []struct {
	name string
	spec func(src, tgt string) Spec
}{
	{"src-crash", func(src, _ string) Spec { return Spec{Kind: NodeCrash, Node: src} }},
	{"tgt-crash", func(_, tgt string) Spec { return Spec{Kind: NodeCrash, Node: tgt} }},
	{"link", func(_, tgt string) Spec { return Spec{Kind: HCAFail, Node: tgt} }},
	{"disk", func(_, tgt string) Spec { return Spec{Kind: DiskFail, Node: tgt} }},
	{"drop-restart", func(_, _ string) Spec { return Spec{Kind: FTBDrop, Event: ftb.EventRestart} }},
}

// MigrationFaultNames lists the names MigrationFault accepts, comma-separated.
func MigrationFaultNames() string {
	names := make([]string, len(migrationFaults))
	for i, f := range migrationFaults {
		names[i] = f.name
	}
	return strings.Join(names, ", ")
}

// MigrationFault returns the fault a named command-line fault injects into a
// migration from src to the spare tgt.
func MigrationFault(name, src, tgt string) (Spec, error) {
	for _, f := range migrationFaults {
		if f.name == name {
			return f.spec(src, tgt), nil
		}
	}
	return Spec{}, fmt.Errorf("unknown fault %q (want one of: %s)", name, MigrationFaultNames())
}

// PhaseSource is anything that announces migration phase entries —
// core.Framework's OnPhase satisfies it.
type PhaseSource interface {
	OnPhase(fn func(p *sim.Proc, seq, phase int))
}

// Injector schedules faults against one cluster.
type Injector struct {
	c      *cluster.Cluster
	phased map[[2]int][]Spec // (seq, phase) -> faults; seq 0 matches any
	drops  map[string]int
	delays map[string]sim.Duration
	armed  bool
	nAt    int

	// Applied logs every fault actually injected, in order, for assertions.
	Applied []string
}

// NewInjector creates an injector for the cluster.
func NewInjector(c *cluster.Cluster) *Injector {
	return &Injector{
		c:      c,
		phased: make(map[[2]int][]Spec),
		drops:  make(map[string]int),
		delays: make(map[string]sim.Duration),
	}
}

// At schedules a fault at an absolute simulation time (clamped to "now" if t
// is already past when the engine starts the injection process).
func (in *Injector) At(t sim.Time, sp Spec) {
	in.nAt++
	in.c.E.Spawn(fmt.Sprintf("fault.at.%d", in.nAt), func(p *sim.Proc) {
		p.Sleep(t.Sub(p.Now()))
		in.Apply(p, sp)
	})
}

// AtPhase schedules a fault at the entry of the given phase (1..4) of
// migration attempt seq; seq 0 matches any attempt. Requires Bind. Each
// scheduled fault fires once.
func (in *Injector) AtPhase(seq, phase int, sp Spec) {
	key := [2]int{seq, phase}
	in.phased[key] = append(in.phased[key], sp)
}

// Bind anchors the AtPhase schedule to a phase source. The faults run
// synchronously at phase entry — before the phase's first protocol action —
// which is what makes the (fault x phase) matrix deterministic.
func (in *Injector) Bind(src PhaseSource) {
	src.OnPhase(func(p *sim.Proc, seq, phase int) {
		for _, key := range [][2]int{{seq, phase}, {0, phase}} {
			specs := in.phased[key]
			if len(specs) == 0 {
				continue
			}
			delete(in.phased, key)
			for _, sp := range specs {
				in.Apply(p, sp)
			}
		}
	})
}

// Apply injects one fault immediately.
func (in *Injector) Apply(p *sim.Proc, sp Spec) {
	p.Trace("fault.inject", sp.String())
	in.Applied = append(in.Applied, sp.String())
	switch sp.Kind {
	case NodeCrash:
		in.c.KillNode(p, sp.Node)
	case HCAFail:
		in.node(sp.Node).HCA.Fail()
	case DiskFail:
		in.node(sp.Node).FS.Disk().Fail()
	case FTBDrop:
		in.drops[sp.Event]++
		in.arm()
	case FTBDelay:
		in.delays[sp.Event] = sp.Delay
		in.arm()
	case RackFail:
		members := in.c.RackMembers(sp.Node)
		if len(members) == 0 {
			panic("fault: unknown node " + sp.Node)
		}
		for _, name := range members {
			if name == in.c.Login.Name {
				continue
			}
			in.c.KillNode(p, name)
		}
	case LinkFlap:
		in.startFlap(sp)
	}
}

// startFlap runs one LinkFlap schedule in its own process: Flaps cycles of
// (HCA down, hold Delay, HCA up, hold Gap), all on the virtual clock. The
// flapping stops — leaving the adapter down — if the node crashes outright
// mid-schedule: a dead node's link must not come back.
func (in *Injector) startFlap(sp Spec) {
	node := in.node(sp.Node)
	flaps := sp.Flaps
	if flaps <= 0 {
		flaps = 3
	}
	down := sp.Delay
	if down <= 0 {
		down = 50 * 1e6 // 50ms
	}
	gap := sp.Gap
	if gap <= 0 {
		gap = 30 * 1e6 // 30ms
	}
	in.nAt++
	in.c.E.Spawn(fmt.Sprintf("fault.flap.%s.%d", sp.Node, in.nAt), func(p *sim.Proc) {
		for i := 0; i < flaps; i++ {
			if !in.c.NodeAlive(sp.Node) {
				return
			}
			node.HCA.Fail()
			p.Trace("fault.flap", fmt.Sprintf("%s link down (%d/%d)", sp.Node, i+1, flaps))
			p.Sleep(down)
			if !in.c.NodeAlive(sp.Node) {
				return
			}
			node.HCA.Recover()
			p.Trace("fault.flap", fmt.Sprintf("%s link up (%d/%d)", sp.Node, i+1, flaps))
			p.Sleep(gap)
		}
	})
}

func (in *Injector) node(name string) *cluster.Node {
	n := in.c.Node(name)
	if n == nil {
		panic("fault: unknown node " + name)
	}
	return n
}

// arm installs the backplane filter that consumes armed drop/delay faults.
func (in *Injector) arm() {
	if in.armed {
		return
	}
	in.armed = true
	in.c.FTB.SetFilter(func(ev ftb.Event) (ftb.Verdict, sim.Duration) {
		if n := in.drops[ev.Name]; n > 0 {
			in.drops[ev.Name] = n - 1
			return ftb.Drop, 0
		}
		if d, ok := in.delays[ev.Name]; ok {
			delete(in.delays, ev.Name)
			return ftb.Delay, d
		}
		return ftb.Deliver, 0
	})
}
