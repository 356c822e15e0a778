// Package gige models the cluster's Gigabit Ethernet maintenance network —
// the transport beneath the Fault Tolerance Backplane in the paper's testbed
// ("they are also connected with a GigE network for maintenance purposes,
// over which the Fault Tolerance Backplane runs").
//
// The model is a TCP-like reliable, ordered, bidirectional byte-message
// connection with kernel memory-copy overhead per message: exactly the
// protocol-stack cost the paper cites when arguing that socket-based process
// migration loses to RDMA.
package gige

import (
	"errors"
	"fmt"

	"ibmig/internal/calib"
	"ibmig/internal/sim"
)

// ErrConnClosed is returned on use of a closed connection.
var ErrConnClosed = errors.New("gige: connection closed")

// ErrUnknownHost is returned when dialing a node with no endpoint.
var ErrUnknownHost = errors.New("gige: unknown host")

// Config sets link parameters; zero values use calibrated defaults.
type Config struct {
	Bandwidth     int64
	Latency       sim.Duration
	PerMessageCPU sim.Duration
}

func (c Config) withDefaults() Config {
	if c.Bandwidth == 0 {
		c.Bandwidth = calib.GigEBandwidth
	}
	if c.Latency == 0 {
		c.Latency = calib.GigELatency
	}
	if c.PerMessageCPU == 0 {
		c.PerMessageCPU = calib.GigEPerMessageCPU
	}
	return c
}

// Network is the switched Ethernet segment.
type Network struct {
	E   *sim.Engine
	cfg Config
	eps map[string]*Endpoint

	BytesTransferred int64
	Messages         int64
}

// NewNetwork creates an Ethernet segment on the engine.
func NewNetwork(e *sim.Engine, cfg Config) *Network {
	return &Network{E: e, cfg: cfg.withDefaults(), eps: make(map[string]*Endpoint)}
}

// Attach adds a host NIC. Host names must be unique.
func (n *Network) Attach(node string) *Endpoint {
	if _, dup := n.eps[node]; dup {
		panic("gige: duplicate endpoint for " + node)
	}
	ep := &Endpoint{
		net:     n,
		node:    node,
		tx:      sim.NewResource(n.E, "eth.tx."+node, 1),
		rx:      sim.NewResource(n.E, "eth.rx."+node, 1),
		backlog: sim.NewQueue[*Conn](n.E, "eth.accept."+node, 0),
	}
	n.eps[node] = ep
	return ep
}

// Endpoint returns the NIC attached for node, or nil.
func (n *Network) Endpoint(node string) *Endpoint { return n.eps[node] }

// Endpoint is one host's NIC plus its listening socket.
type Endpoint struct {
	net     *Network
	node    string
	tx, rx  *sim.Resource
	backlog *sim.Queue[*Conn]
	nextFD  int
}

// Accept blocks until an inbound connection arrives.
func (ep *Endpoint) Accept(p *sim.Proc) (*Conn, bool) {
	return ep.backlog.Recv(p)
}

// Dial opens a connection to the named host, paying a connection round trip,
// and returns the local end. The remote end is delivered to the target's
// Accept queue.
func (ep *Endpoint) Dial(p *sim.Proc, node string) (*Conn, error) {
	remote := ep.net.eps[node]
	if remote == nil {
		return nil, fmt.Errorf("%w: %s", ErrUnknownHost, node)
	}
	p.Sleep(2 * ep.net.cfg.Latency) // SYN / SYN-ACK
	ep.nextFD++
	local := &Conn{ep: ep, fd: ep.nextFD, in: sim.NewQueue[Message](ep.net.E, fmt.Sprintf("eth.%s.fd%d", ep.node, ep.nextFD), 0), open: true}
	remote.nextFD++
	peer := &Conn{ep: remote, fd: remote.nextFD, in: sim.NewQueue[Message](ep.net.E, fmt.Sprintf("eth.%s.fd%d", remote.node, remote.nextFD), 0), open: true}
	local.peer, peer.peer = peer, local
	remote.backlog.TrySend(peer)
	return local, nil
}

// Message is one framed application message.
type Message struct {
	Kind    string
	Payload any
	Size    int64 // simulated wire size; 0 is treated as a minimal frame
}

func (m Message) wireSize() int64 {
	if m.Size < 64 {
		return 64
	}
	return m.Size
}

// Conn is one end of an established connection.
type Conn struct {
	ep   *Endpoint
	fd   int
	peer *Conn
	in   *sim.Queue[Message]
	open bool
}

// RemoteNode returns the peer host.
func (c *Conn) RemoteNode() string { return c.peer.ep.node }

// Open reports whether the connection is usable.
func (c *Conn) Open() bool { return c.open && c.peer.open }

// Send transmits a message; the calling process pays the CPU copy cost and
// the wire serialization on both endpoint links.
func (c *Conn) Send(p *sim.Proc, m Message) error {
	if !c.Open() {
		return ErrConnClosed
	}
	cfg := c.ep.net.cfg
	n := m.wireSize()
	c.ep.net.BytesTransferred += n
	c.ep.net.Messages++
	p.Sleep(cfg.PerMessageCPU) // socket + kernel copy at sender
	s := sim.Duration(float64(n) / float64(cfg.Bandwidth) * 1e9)
	c.ep.tx.Hold(p, 1, s)
	p.Sleep(cfg.Latency)
	c.peer.ep.rx.Hold(p, 1, s)
	p.Sleep(cfg.PerMessageCPU) // kernel copy at receiver
	if !c.Open() {
		return ErrConnClosed
	}
	c.peer.in.TrySend(m)
	return nil
}

// SendAsync transmits without blocking the caller (a helper process performs
// the wire work).
func (c *Conn) SendAsync(m Message) error {
	if !c.Open() {
		return ErrConnClosed
	}
	c.ep.net.E.Spawn(fmt.Sprintf("eth.send.%s->%s", c.ep.node, c.peer.ep.node), func(p *sim.Proc) {
		_ = c.Send(p, m)
	})
	return nil
}

// Recv blocks until a message arrives; ok is false once the connection is
// closed and drained.
func (c *Conn) Recv(p *sim.Proc) (Message, bool) {
	return c.in.Recv(p)
}

// Close shuts down both directions.
func (c *Conn) Close() {
	if !c.open {
		return
	}
	c.open = false
	c.in.Close()
	if c.peer.open {
		c.peer.open = false
		c.peer.in.Close()
	}
}
