package mpi

import (
	"fmt"

	"ibmig/internal/calib"
	"ibmig/internal/payload"
	"ibmig/internal/sim"
)

// OpKind names one operation of a rank program.
type OpKind uint8

// Rank-program operations. Each runs exactly as the blocking call it names.
const (
	OpEnd      OpKind = iota // ends the program
	OpRecv                   // Recv(Peer, Tag); the payload goes to Program.Received
	OpCompute                // Compute(D)
	OpSend                   // Send(Peer, Tag, N)
	OpCall                   // Program.Call(op), run in the rank's coroutine
	opSendData               // SendData(Peer, Tag, data): only as a blocking call
)

// Op is one operation of a rank program. Kind selects which fields it reads.
type Op struct {
	Kind      OpKind
	Peer, Tag int
	N         int64        // OpSend: payload bytes
	D         sim.Duration // OpCompute: computation time
}

// Program is a sequence of point-to-point and compute operations that a rank
// runs with Rank.Run, in engine context as its process's step (see
// sim.Proc.Block). The rank's coroutine is resumed only when the program
// ends or an operation needs coroutine-only service: a pending suspension,
// a self-send, a rendezvous-size or fault-tolerant send, a closed mailbox,
// a connection that is missing or would fail, or an OpCall. There it
// finishes the operation at the same instant with the blocking code, so a
// program is event-for-event the loop of blocking calls it stands for
// (FuzzRankProgramMatchesCalls pins this).
//
// Next and Received run in engine context and must not block or touch the
// simulation; Call runs in the coroutine and may do anything the rank may.
type Program interface {
	// Next returns the next operation, or one of Kind OpEnd.
	Next() Op
	// Received takes the payload of each OpRecv, in program order.
	Received(data payload.Buffer)
	// Call runs an OpCall operation Next just returned.
	Call(r *Rank, op Op)
}

// Program stages. Each operation starts at the stage opStart gives and ends
// in opDone; a stage that parks names the wake it resumes at.
const (
	stNext         = iota // fetch the next operation
	stEnd                 // the program is over
	stRecvPoll            // Recv: suspension check
	stRecvScan            // Recv: match against the unexpected list
	stRecvWait            // Recv: take from the mailbox, parking while empty
	stRecvDone            // Recv: the overhead after a match has elapsed
	stCompute             // Compute: charge the time
	stComputePoll         // Compute: suspension check before a slice or at the end
	stComputeSleep        // Compute: sleep one slice
	stComputeEnd          // Compute: all slices done
	stSend                // Send: synthesize the payload
	stSendPoll            // Send/SendData: suspension check
	stSendOverhead        // Send/SendData: per-message overhead sleep
	stSendPost            // Send/SendData: post the message
)

// Why a step hands its operation to the coroutine (runner.bail).
const (
	bailSuspend = iota + 1 // honour the pending suspension, then continue
	bailClosed             // the mailbox is closed: the receive panics
	bailSend               // finish the send with the blocking code
	bailCall               // run Program.Call
)

// Results of runner.advance.
const (
	stepParked = iota // the process is parked with a Flow* primitive
	stepBail          // the coroutine must serve runner.bail
	stepEnd           // the program is over
)

// runner is a rank's position in the program it is running: the blocking
// calls run a one-operation program (prog nil, op preloaded), Run a Program.
// It is the rank process's step while the process is blocked in Run, so it
// is embedded in the Rank and costs no allocation per call.
type runner struct {
	r    *Rank
	prog Program
	// op is the current operation. A Compute counts op.D down as its
	// slices elapse, and a matched Recv sets op.Peer to the actual source.
	op     Op
	stage  uint8
	bail   uint8
	res    uint8 // advance's result when the step ended (see Step)
	active bool
	data   payload.Buffer // the send's payload, or the matched receive's
}

// opStart returns the first stage of an operation.
func opStart(k OpKind) uint8 {
	switch k {
	case OpEnd:
		return stEnd
	case OpRecv:
		return stRecvPoll
	case OpCompute:
		return stCompute
	case OpSend:
		return stSend
	case opSendData:
		return stSendPoll
	}
	panic(fmt.Sprintf("mpi: unknown rank-program operation %d", k))
}

// Run runs prog on the rank (see Program). It must be called from the
// rank's own process, like every blocking call.
func (r *Rank) Run(prog Program) { r.exec(prog, Op{}, payload.Buffer{}) }

// exec runs prog, or with prog nil the single operation op (data is
// SendData's payload), and returns the last matched receive. A call from
// an OpCall nests: the outer program's position is restored after it.
func (r *Rank) exec(prog Program, op Op, data payload.Buffer) (payload.Buffer, int) {
	x := &r.run
	var outer runner
	nested := x.active
	if nested {
		outer = *x
	}
	*x = runner{r: r, prog: prog, op: op, data: data, active: true}
	if prog == nil {
		x.stage = opStart(op.Kind)
	}
	for {
		res := x.advance()
		if res == stepParked {
			r.p.Block(x)
			res = x.res
		}
		if res == stepEnd {
			break
		}
		x.serve()
	}
	data, from := x.data, x.op.Peer
	if nested {
		*x = outer
	} else {
		*x = runner{r: r}
	}
	return data, from
}

// Step implements sim.Flow: at each wake of the blocked rank process it
// advances the program, and hands the wake to the coroutine when the
// program ends or needs coroutine-only service.
func (x *runner) Step(p *sim.Proc, _ int) {
	if x.res = x.advance(); x.res != stepParked {
		p.EndStep()
	}
}

// serve performs, in the rank's coroutine, the service a bail asked for.
func (x *runner) serve() {
	r := x.r
	switch x.bail {
	case bailSuspend:
		r.poll()
	case bailClosed:
		panic(fmt.Sprintf("mpi: rank %d mailbox closed", r.id))
	case bailSend:
		r.sendSlow(x.op.Peer, x.op.Tag, x.data)
		x.opDone()
	case bailCall:
		x.prog.Call(r, x.op)
		x.opDone()
	}
}

// opDone ends the current operation: a receive's payload goes to the
// program, and a one-operation program is over.
func (x *runner) opDone() {
	if x.prog == nil {
		x.stage = stEnd
		return
	}
	if x.op.Kind == OpRecv {
		x.prog.Received(x.data)
	}
	x.data = payload.Buffer{}
	x.stage = stNext
}

// to hands the current operation to the coroutine with service b.
func (x *runner) to(b uint8) uint8 {
	x.bail = b
	return stepBail
}

// advance runs the program from its stage until it parks the rank process,
// needs the coroutine or ends. It runs in the coroutine when a call starts
// or a bail has been served, and as the step at every other wake, and pushes
// the same events either way: those of the blocking calls.
func (x *runner) advance() uint8 {
	r := x.r
	for {
		switch x.stage {
		case stNext:
			x.op = x.prog.Next()
			if x.op.Kind == OpCall {
				return x.to(bailCall)
			}
			x.stage = opStart(x.op.Kind)
		case stEnd:
			return stepEnd

		case stRecvPoll:
			x.stage = stRecvScan
			if r.suspendReq {
				return x.to(bailSuspend)
			}
		case stRecvScan:
			x.stage = stRecvWait
			for i, m := range r.unexp {
				if match(m, x.op.Peer, x.op.Tag) {
					r.unexp = append(r.unexp[:i], r.unexp[i+1:]...)
					x.data, x.op.Peer = m.data, m.from
					x.opDone()
					break
				}
			}
		case stRecvWait:
			m, ok := r.mailbox.TryRecv()
			if !ok {
				if r.mailbox.Closed() {
					return x.to(bailClosed)
				}
				r.mailbox.FlowRecvPark(r.p)
				return stepParked
			}
			if m.ctl == ctlSuspend {
				if r.suspendReq {
					return x.to(bailSuspend)
				}
				continue
			}
			if !match(m, x.op.Peer, x.op.Tag) {
				r.unexp = append(r.unexp, m)
				continue
			}
			x.data, x.op.Peer = m.data, m.from
			x.stage = stRecvDone
			r.p.FlowSleep(calib.MPIPerMessageOverhead)
			return stepParked
		case stRecvDone:
			x.opDone()

		case stCompute:
			r.ComputeTime += x.op.D
			x.stage = stComputePoll
		case stComputePoll:
			x.stage = stComputeSleep
			if x.op.D <= 0 {
				x.stage = stComputeEnd
			}
			if r.suspendReq {
				return x.to(bailSuspend)
			}
		case stComputeSleep:
			s := min(r.w.cfg.ComputeSlice, x.op.D)
			x.op.D -= s
			x.stage = stComputePoll
			r.p.FlowSleep(s)
			return stepParked
		case stComputeEnd:
			x.opDone()

		case stSend:
			x.data = r.synth(x.op.Tag, x.op.N)
			x.stage = stSendPoll
		case stSendPoll:
			x.stage = stSendOverhead
			if r.suspendReq {
				return x.to(bailSuspend)
			}
		case stSendOverhead:
			x.stage = stSendPost
			r.p.FlowSleep(calib.MPIPerMessageOverhead)
			return stepParked
		case stSendPost:
			r.BytesSent += x.data.Size()
			r.MsgsSent++
			if !r.postEager(x.op.Peer, x.op.Tag, x.data) {
				return x.to(bailSend)
			}
			x.opDone()
		}
	}
}

// postEager posts an eager send on a working connection, the common case,
// and reports whether it did. Everything else — a self-send, a
// rendezvous-size payload, fault-tolerant mode, a missing connection or one
// whose first verbs call would fail — is left to sendSlow in the coroutine.
func (r *Rank) postEager(to, tag int, data payload.Buffer) bool {
	if to == r.id || r.w.ftMode || data.Size() > r.w.cfg.EagerThreshold {
		return false
	}
	c := r.conns[to]
	if c == nil || c.brokenNow() {
		return false
	}
	r.beginOp()
	err := c.ensure()
	if err == nil {
		err = c.qp.PostSend(r.wire(tag, data))
	}
	r.endOp()
	if err != nil { // brokenNow said it would not fail
		panic(fmt.Sprintf("mpi: rank %d send to %d: %v", r.id, to, err))
	}
	return true
}
