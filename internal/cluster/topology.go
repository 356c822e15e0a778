package cluster

// Topology is the rack layout shared by the detailed testbed (Cluster) and
// the fleet-scale control plane (internal/fleet): consecutive nodes grouped
// into racks (switch domains) of fixed size — the correlated-failure unit and
// the locality unit rack-aware placement packs against. A zero RackSize means
// no rack structure: every node is its own failure domain.
type Topology struct {
	rackOf map[string]int
	racks  [][]string
}

// NewTopology racks the named nodes in order: node i belongs to rack
// i/rackSize. With rackSize <= 0 the topology is empty (RackOf returns -1
// for every name).
func NewTopology(names []string, rackSize int) *Topology {
	t := &Topology{rackOf: make(map[string]int)}
	if rackSize <= 0 {
		return t
	}
	for i, name := range names {
		r := i / rackSize
		t.rackOf[name] = r
		for len(t.racks) <= r {
			t.racks = append(t.racks, nil)
		}
		t.racks[r] = append(t.racks[r], name)
	}
	return t
}

// RackOf returns the rack index of a node, or -1 when the node is not part
// of the rack sequence.
func (t *Topology) RackOf(name string) int {
	if r, ok := t.rackOf[name]; ok {
		return r
	}
	return -1
}

// RackMembers returns the node names sharing a rack with name (including
// name itself), or nil when the node is unknown to the topology.
func (t *Topology) RackMembers(name string) []string {
	r, ok := t.rackOf[name]
	if !ok {
		return nil
	}
	return append([]string(nil), t.racks[r]...)
}
