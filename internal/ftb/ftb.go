// Package ftb implements the Fault Tolerance Backplane of the CIFTS project,
// the publish/subscribe infrastructure the paper adopts "as a communication
// infrastructure for all the components to exchange fault-related messages
// during a migration".
//
// Mirroring the FTB software stack, the implementation has a client layer
// (Client: Connect/Subscribe/Publish), a manager layer (subscription matching
// and event routing in each Agent), and a network layer (the GigE maintenance
// network). Agents form a tree; events flood the tree and are delivered to
// every matching subscriber exactly once. If an agent dies, its children
// re-attach to their nearest live ancestor (the paper: "if an agent loses
// connectivity during its lifetime, it can reconnect itself to a new parent
// in the topology tree").
package ftb

import (
	"fmt"
	"time"

	"ibmig/internal/gige"
	"ibmig/internal/obs"
	"ibmig/internal/sim"
)

// Well-known event names used by the migration framework (paper, Fig. 2).
const (
	EventMigrate     = "FTB_MIGRATE"      // start a migration; payload names source and target
	EventMigratePIIC = "FTB_MIGRATE_PIIC" // process-image transfer complete
	EventRestart     = "FTB_RESTART"      // restart migrated ranks on the target
)

// NamespaceMVAPICH is the event namespace used by the MPI library components.
const NamespaceMVAPICH = "ftb.mpi.mvapich2"

// clientHop is the shared-memory latency between a client and its co-located
// agent.
const clientHop = 2 * time.Microsecond

// Event is one fault-tolerance message.
type Event struct {
	Namespace string
	Name      string
	Severity  string
	Payload   any
	SrcClient string
	SrcNode   string
	Seq       uint64   // backplane-global publish sequence number
	PubAt     sim.Time // virtual publish time, stamped by Publish
}

func (ev Event) String() string {
	return fmt.Sprintf("%s/%s from %s@%s", ev.Namespace, ev.Name, ev.SrcClient, ev.SrcNode)
}

// wireSize is the simulated size of an event on the GigE network.
func (ev Event) wireSize() int64 { return 256 }

// Backplane is the deployed FTB: one agent per node, connected in a tree.
type Backplane struct {
	E       *sim.Engine
	net     *gige.Network
	agents  map[string]*Agent
	order   []string // deployment order, root first (determinism)
	nextSeq uint64

	Published uint64
	Delivered uint64
	Dropped   uint64 // events discarded by the publish filter
	Delayed   uint64 // events held back by the publish filter

	filter Filter
}

// Verdict is a publish filter's decision for one event.
type Verdict int

// Filter verdicts.
const (
	Deliver Verdict = iota // pass the event through unchanged
	Drop                   // silently lose the event
	Delay                  // deliver after the returned duration
)

// Filter inspects an event at its injection point (before it reaches the
// publisher's local agent) and decides its fate — the hook fault injection
// uses to model lost or late FTB notifications. The returned duration is
// only meaningful for Delay.
type Filter func(ev Event) (Verdict, sim.Duration)

// SetFilter installs (or, with nil, removes) the publish filter.
func (bp *Backplane) SetFilter(f Filter) { bp.filter = f }

// envelope is an event in transit inside an agent, tagged with the tree edge
// it arrived on (nil for local clients) so it is not echoed back.
type envelope struct {
	ev   Event
	from *gige.Conn
}

// Agent is the per-node FTB daemon.
type Agent struct {
	bp      *Backplane
	node    string
	parent  string // parent node name ("" for root)
	inbox   *sim.Queue[envelope]
	edges   []*gige.Conn // live tree links (parent + children)
	clients []*Client
	alive   bool
	ep      *gige.Endpoint
}

// Deploy builds a backplane over the given nodes (root first) with the given
// tree fan-out, starting agent and listener processes. The GigE network must
// already have an endpoint attached for every node.
func Deploy(e *sim.Engine, net *gige.Network, nodes []string, fanout int) *Backplane {
	if len(nodes) == 0 {
		panic("ftb: no nodes")
	}
	if fanout < 1 {
		fanout = 2
	}
	bp := &Backplane{E: e, net: net, agents: make(map[string]*Agent), order: append([]string(nil), nodes...)}
	for i, n := range nodes {
		a := &Agent{
			bp:    bp,
			node:  n,
			inbox: sim.NewQueue[envelope](e, "ftb.inbox."+n, 0),
			alive: true,
			ep:    net.Endpoint(n),
		}
		if a.ep == nil {
			panic("ftb: no gige endpoint for node " + n)
		}
		if i > 0 {
			a.parent = nodes[(i-1)/fanout]
		}
		bp.agents[n] = a
		e.Spawn("ftb.agent."+n, a.loop)
		e.Spawn("ftb.listen."+n, a.listen)
	}
	// Children dial their parents.
	for _, n := range nodes[1:] {
		a := bp.agents[n]
		e.Spawn("ftb.join."+n, func(p *sim.Proc) { a.attach(p, a.parent) })
	}
	return bp
}

// KillAgent simulates the death of a node's FTB agent: all its tree links
// drop and its clients stop receiving events. Children self-heal by
// re-attaching to the nearest live ancestor.
func (bp *Backplane) KillAgent(node string) {
	a := bp.agents[node]
	if a == nil || !a.alive {
		return
	}
	a.alive = false
	for _, c := range a.edges {
		c.Close()
	}
	a.edges = nil
	a.inbox.Close()
}

// healTarget walks up the (deployment-time) ancestry to the nearest live
// agent.
func (bp *Backplane) healTarget(from *Agent) *Agent {
	p := from.parent
	for p != "" {
		if a := bp.agents[p]; a != nil && a.alive {
			return a
		}
		p = bp.agents[p].parent
	}
	return nil
}

// listen accepts inbound tree links and spawns a reader per link.
func (a *Agent) listen(p *sim.Proc) {
	for {
		conn, ok := a.ep.Accept(p)
		if !ok {
			return
		}
		if !a.alive {
			conn.Close()
			continue
		}
		a.edges = append(a.edges, conn)
		p.SpawnChild(fmt.Sprintf("ftb.rd.%s<-%s", a.node, conn.RemoteNode()), func(rp *sim.Proc) {
			a.read(rp, conn, false)
		})
	}
}

// attach dials the given parent and starts reading from it.
func (a *Agent) attach(p *sim.Proc, parent string) {
	if !a.alive {
		return
	}
	conn, err := a.ep.Dial(p, parent)
	if err != nil {
		return
	}
	a.parent = parent
	a.edges = append(a.edges, conn)
	a.read(p, conn, true)
}

// read pumps one tree link into the agent inbox. If the link was the
// parent link and it drops while we are alive, self-heal by re-attaching to
// the nearest live ancestor.
func (a *Agent) read(p *sim.Proc, conn *gige.Conn, isParent bool) {
	for {
		m, ok := conn.Recv(p)
		if !ok {
			a.dropEdge(conn)
			if isParent && a.alive {
				if t := a.bp.healTarget(a); t != nil {
					a.bp.E.Trace("ftb.heal", a.node, "reattach to "+t.node)
					a.attach(p, t.node)
				}
			}
			return
		}
		if ev, isEv := m.Payload.(Event); isEv && a.alive {
			a.inbox.TrySend(envelope{ev: ev, from: conn})
		}
	}
}

func (a *Agent) dropEdge(conn *gige.Conn) {
	for i, c := range a.edges {
		if c == conn {
			a.edges = append(a.edges[:i], a.edges[i+1:]...)
			return
		}
	}
}

// loop is the manager layer: deliver matching events locally and forward
// along every tree edge except the one the event arrived on.
func (a *Agent) loop(p *sim.Proc) {
	for {
		env, ok := a.inbox.Recv(p)
		if !ok {
			return
		}
		for _, cl := range a.clients {
			cl.deliver(env.ev)
		}
		for _, edge := range a.edges {
			if edge == env.from {
				continue
			}
			_ = edge.SendAsync(gige.Message{Kind: "ftb.event", Payload: env.ev, Size: env.ev.wireSize()})
		}
	}
}

// Client is a component connected to its node-local agent (the paper's dark
// boxes: Job Manager, NLAs, and the C/R thread in every MPI process).
type Client struct {
	bp    *Backplane
	agent *Agent
	name  string
	subs  []*Subscription
}

// Connect attaches a named client to the agent on node.
func (bp *Backplane) Connect(node, name string) *Client {
	a := bp.agents[node]
	if a == nil {
		panic("ftb: no agent on node " + node)
	}
	c := &Client{bp: bp, agent: a, name: name}
	a.clients = append(a.clients, c)
	return c
}

// Subscription is a client's filtered event stream.
type Subscription struct {
	Namespace string // "" matches any
	Name      string // "" matches any
	q         *sim.Queue[Event]
}

// Subscribe registers interest in events matching the namespace and name
// ("" = wildcard) and returns the stream.
func (c *Client) Subscribe(namespace, name string) *Subscription {
	s := &Subscription{
		Namespace: namespace,
		Name:      name,
		q:         sim.NewQueue[Event](c.bp.E, fmt.Sprintf("ftb.sub.%s.%s", c.name, name), 0),
	}
	c.subs = append(c.subs, s)
	return s
}

// Recv blocks until a matching event arrives.
func (s *Subscription) Recv(p *sim.Proc) (Event, bool) { return s.q.Recv(p) }

// TryRecv returns a queued event without blocking.
func (s *Subscription) TryRecv() (Event, bool) { return s.q.TryRecv() }

// Pending returns the number of undelivered events on the stream.
func (s *Subscription) Pending() int { return s.q.Len() }

func (c *Client) deliver(ev Event) {
	for _, s := range c.subs {
		if (s.Namespace == "" || s.Namespace == ev.Namespace) && (s.Name == "" || s.Name == ev.Name) {
			c.bp.Delivered++
			if oc := obs.Get(c.bp.E); oc != nil {
				oc.Add("ftb.delivered", 1)
				oc.Hist("ftb.delivery_us", obs.LatencyBucketsUS).
					Observe(float64(c.bp.E.Now().Sub(ev.PubAt)) / 1e3)
			}
			s.q.TrySend(ev)
		}
	}
}

// Publish injects an event into the backplane via the client's local agent.
// Delivery to subscribers on the same node is near-immediate; other nodes
// see it after tree propagation over GigE.
func (c *Client) Publish(p *sim.Proc, ev Event) {
	if !c.agent.alive {
		return // orphaned client: publishes are lost until the node recovers
	}
	ev.SrcClient = c.name
	ev.SrcNode = c.agent.node
	c.bp.nextSeq++
	ev.Seq = c.bp.nextSeq
	ev.PubAt = c.bp.E.Now()
	c.bp.Published++
	if oc := obs.Get(c.bp.E); oc != nil {
		oc.Add("ftb.published", 1)
	}
	p.Sleep(clientHop)
	c.bp.E.Trace("ftb.publish", c.name, ev.String())
	if c.bp.filter != nil {
		verdict, d := c.bp.filter(ev)
		switch verdict {
		case Drop:
			c.bp.Dropped++
			c.bp.E.Trace("ftb.drop", c.name, ev.String())
			return
		case Delay:
			c.bp.Delayed++
			c.bp.E.Trace("ftb.delay", c.name, ev.String())
			agent := c.agent
			c.bp.E.After(d, func() {
				if agent.alive {
					agent.inbox.TrySend(envelope{ev: ev})
				}
			})
			return
		}
	}
	c.agent.inbox.TrySend(envelope{ev: ev})
}
