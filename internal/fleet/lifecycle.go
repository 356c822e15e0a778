package fleet

import (
	"fmt"

	"ibmig/internal/sim"
)

// NodeState is one station of the managed node lifecycle. The legal cycle is
// the one the control plane drives:
//
//	Active -> Cordoned -> Draining -> Spare -> Active   (health scare, drained, reused)
//	   \->  Failed -> Repaired -> Spare                 (death, repair crew, pool re-entry)
//
// Everything else panics: an illegal transition is a control-plane bug, never
// a simulated condition, so the state machine fails loudly (the DST fleet
// invariants and the lifecycle table tests lean on this).
type NodeState int

// Node lifecycle states.
const (
	// StateActive: in service — schedulable, possibly running job ranks.
	StateActive NodeState = iota
	// StateCordoned: marked unschedulable (health warning / predicted
	// failure) but still holding whatever ranks it had.
	StateCordoned
	// StateDraining: its ranks are being migrated away.
	StateDraining
	// StateSpare: healthy, idle, held in the spare pool as failover headroom.
	StateSpare
	// StateFailed: dead; out for repair.
	StateFailed
	// StateRepaired: fixed by the repair crew, pending pool re-entry.
	StateRepaired

	numStates = int(StateRepaired) + 1
)

func (s NodeState) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateCordoned:
		return "cordoned"
	case StateDraining:
		return "draining"
	case StateSpare:
		return "spare"
	case StateFailed:
		return "failed"
	case StateRepaired:
		return "repaired"
	}
	return "unknown"
}

// legal is the transition table: legal[from][to].
var legal = [numStates][numStates]bool{
	StateActive:   {StateCordoned: true, StateFailed: true},
	StateCordoned: {StateActive: true, StateDraining: true, StateFailed: true},
	StateDraining: {StateSpare: true, StateFailed: true},
	StateSpare:    {StateActive: true, StateFailed: true},
	StateFailed:   {StateRepaired: true},
	StateRepaired: {StateSpare: true},
}

// LegalTransition reports whether from -> to is in the lifecycle table.
func LegalTransition(from, to NodeState) bool {
	if from < 0 || int(from) >= numStates || to < 0 || int(to) >= numStates {
		return false
	}
	return legal[from][to]
}

// Node is one fleet machine: lifecycle state, rack, and (when active) the job
// whose ranks it carries.
type Node struct {
	ID    int
	Name  string
	Rack  int
	State NodeState

	// Job is the job occupying this node (nil when free, spare, or down).
	Job *Job
	// Since is when the node entered its current state.
	Since sim.Time
}

// to moves the node to state s at time t, panicking on an illegal
// transition and notifying the system's accounting.
func (s *System) to(t sim.Time, n *Node, next NodeState) {
	if !LegalTransition(n.State, next) {
		panic(fmt.Sprintf("fleet: illegal lifecycle transition %s -> %s on %s at %v",
			n.State, next, n.Name, t))
	}
	s.account(t, n)
	s.activity++
	s.Transitions[n.State][next]++
	n.State = next
	n.Since = t
}
