// Package cluster is the composition root: it assembles the simulated
// testbed of the paper — login node, compute nodes, hot-spare nodes and PVFS
// I/O servers joined by an InfiniBand fabric, a GigE maintenance network
// carrying the FTB backplane, a local ext3-like file system and process table
// on every node, and an IPoIB socket network for the staging baseline.
package cluster

import (
	"fmt"
	"time"

	"ibmig/internal/calib"
	"ibmig/internal/ftb"
	"ibmig/internal/gige"
	"ibmig/internal/ib"
	"ibmig/internal/proc"
	"ibmig/internal/sim"
	"ibmig/internal/vfs"
)

// FTB vocabulary for cluster-level hardware events.
const (
	// NamespaceCluster carries hardware status events published by the
	// cluster monitor on the login node.
	NamespaceCluster = "ftb.cluster"
	// EventNodeDown announces a node crash; the payload is the node name.
	EventNodeDown = "NODE_DOWN"
)

// ftbFanout is the FTB backplane's agent tree fanout.
const ftbFanout = 4

// Config describes the testbed. Zero values fall back to the paper's layout
// where sensible; adapters, disks, file systems and the PVFS stripe always
// take their calibrated defaults.
type Config struct {
	ComputeNodes int // default 8
	SpareNodes   int // default 1
	PVFSServers  int // no default: 0 disables PVFS

	// RackSize groups compute and spare nodes into racks (switch domains)
	// of this many consecutive nodes — the correlated-failure unit: a rack
	// fault takes every member down together. 0 disables rack topology
	// (every node is its own failure domain). The login and I/O nodes sit
	// outside the rack sequence.
	RackSize int
}

// Node is one machine: adapter, local storage, process table.
type Node struct {
	Name  string
	HCA   *ib.HCA
	Eth   *gige.Endpoint
	IPoIB *gige.Endpoint
	FS    *vfs.FileSystem
	Procs *proc.Table
}

// Cluster is the assembled testbed.
type Cluster struct {
	E      *sim.Engine
	Fabric *ib.Fabric
	Eth    *gige.Network
	IPoIB  *gige.Network
	FTB    *ftb.Backplane
	PVFS   *vfs.PVFS

	Login   *Node
	Compute []*Node
	Spares  []*Node
	nodes   map[string]*Node
	dead    map[string]bool
	monitor *ftb.Client

	topo *Topology
}

// New builds a cluster on the engine.
func New(e *sim.Engine, cfg Config) *Cluster {
	if cfg.ComputeNodes == 0 {
		cfg.ComputeNodes = 8
	}
	if cfg.SpareNodes == 0 {
		cfg.SpareNodes = 1
	}
	c := &Cluster{
		E:      e,
		Fabric: ib.NewFabric(e, ib.Config{}),
		Eth:    gige.NewNetwork(e, gige.Config{}),
		IPoIB: gige.NewNetwork(e, gige.Config{
			Bandwidth:     calib.IPoIBBandwidth,
			Latency:       20 * time.Microsecond,
			PerMessageCPU: 25 * time.Microsecond,
		}),
		nodes: make(map[string]*Node),
		dead:  make(map[string]bool),
	}
	mk := func(name string) *Node {
		n := &Node{
			Name:  name,
			HCA:   c.Fabric.AttachHCA(name),
			Eth:   c.Eth.Attach(name),
			IPoIB: c.IPoIB.Attach(name),
			Procs: proc.NewTable(name),
		}
		n.FS = vfs.NewFileSystem(e, name, vfs.NewDisk(e, name, vfs.DiskConfig{}), vfs.FSConfig{})
		c.nodes[name] = n
		return n
	}
	c.Login = mk("login")
	ftbNodes := []string{"login"}
	for i := 1; i <= cfg.ComputeNodes; i++ {
		n := mk(fmt.Sprintf("node%02d", i))
		c.Compute = append(c.Compute, n)
		ftbNodes = append(ftbNodes, n.Name)
	}
	for i := 1; i <= cfg.SpareNodes; i++ {
		n := mk(fmt.Sprintf("spare%02d", i))
		c.Spares = append(c.Spares, n)
		ftbNodes = append(ftbNodes, n.Name)
	}
	if cfg.PVFSServers > 0 {
		var servers []string
		for i := 1; i <= cfg.PVFSServers; i++ {
			n := mk(fmt.Sprintf("io%02d", i))
			servers = append(servers, n.Name)
		}
		serverDisk := vfs.DiskConfig{StreamPenalty: calib.PVFSStreamPenalty}
		c.PVFS = vfs.NewPVFS(e, c.Fabric, servers, calib.PVFSStripeSize, serverDisk)
	}
	c.FTB = ftb.Deploy(e, c.Eth, ftbNodes, ftbFanout)
	c.monitor = c.FTB.Connect("login", "cluster-monitor")
	racked := append(append([]*Node(nil), c.Compute...), c.Spares...)
	names := make([]string, len(racked))
	for i, n := range racked {
		names[i] = n.Name
	}
	c.topo = NewTopology(names, cfg.RackSize)
	return c
}

// RackMembers returns the node names sharing a rack with name (including
// name itself). Without rack topology the node is its own failure domain.
func (c *Cluster) RackMembers(name string) []string {
	if m := c.topo.RackMembers(name); m != nil {
		return m
	}
	if c.nodes[name] == nil {
		return nil
	}
	return []string{name}
}

// Node returns the named node, or nil.
func (c *Cluster) Node(name string) *Node { return c.nodes[name] }

// NodeAlive reports whether the named node exists and has not been killed.
func (c *Cluster) NodeAlive(name string) bool {
	return c.nodes[name] != nil && !c.dead[name]
}

// KillNode crashes a node: its processes vanish, its HCA and disk fail, and
// its FTB agent dies — all at the current instant, as a power loss would.
// The cluster monitor on the login node then announces the death on the FTB
// (the out-of-band detection path a real IPMI watchdog provides). Idempotent;
// unknown names and the login node are rejected.
func (c *Cluster) KillNode(p *sim.Proc, name string) {
	n := c.nodes[name]
	if n == nil {
		panic("cluster: kill of unknown node " + name)
	}
	if name == c.Login.Name {
		panic("cluster: the login node cannot be killed")
	}
	if c.dead[name] {
		return
	}
	c.dead[name] = true
	p.Trace("cluster.kill", name)
	n.Procs.Clear()
	n.HCA.Fail()
	n.FS.Disk().Fail()
	c.FTB.KillAgent(name)
	c.monitor.Publish(p, ftb.Event{
		Namespace: NamespaceCluster,
		Name:      EventNodeDown,
		Severity:  "FATAL",
		Payload:   name,
	})
}

// ComputeNames returns the compute node names in order.
func (c *Cluster) ComputeNames() []string {
	out := make([]string, len(c.Compute))
	for i, n := range c.Compute {
		out[i] = n.Name
	}
	return out
}

// SpareNames returns the spare node names in order.
func (c *Cluster) SpareNames() []string {
	out := make([]string, len(c.Spares))
	for i, n := range c.Spares {
		out[i] = n.Name
	}
	return out
}

// Placement assigns ranks to compute nodes in contiguous blocks of
// ranksPerNode (the paper's "eight processes per node" layout).
func (c *Cluster) Placement(ranks, ranksPerNode int) []string {
	if ranksPerNode <= 0 || ranks > len(c.Compute)*ranksPerNode {
		panic("cluster: placement does not fit the compute nodes")
	}
	out := make([]string, ranks)
	for i := range out {
		out[i] = c.Compute[i/ranksPerNode].Name
	}
	return out
}
