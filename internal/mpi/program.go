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
	OpSendrecv               // Sendrecv(Peer, Tag, N, From, RecvTag); the payload goes to Program.Received
	opSendData               // SendData(Peer, Tag, data): only as a blocking call
)

// Op is one operation of a rank program. Kind selects which fields it reads.
type Op struct {
	Kind      OpKind
	Peer, Tag int
	// N is the payload bytes of OpSend and OpSendrecv. A negative N is
	// SendrecvData's explicit payload, which only the blocking call has.
	N             int64
	D             sim.Duration // OpCompute: computation time
	From, RecvTag int          // OpSendrecv: the receive half
}

// Program is a sequence of point-to-point and compute operations that a rank
// runs with Rank.Run, in engine context as its process's step (see
// sim.Proc.Block). Sends run there too: an eager post, and a synchronous
// send (rendezvous-size, or any send in fault-tolerant mode) stage by stage
// on the wire. The rank's coroutine is resumed only when the program ends
// or an operation needs coroutine-only service: a pending suspension, a
// self-send, a missing connection, a fault-tolerant send to retry after a
// failure, a closed mailbox, or an OpCall. There it finishes the operation
// at the same instant with the blocking code, so a program is
// event-for-event the loop of blocking calls it stands for
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
	stSend                // Send/Sendrecv: synthesize the payload
	stSendPoll            // Send/SendData/Sendrecv: take a send record, suspension check
	stSendRun             // the send record runs: overhead, post, wire (sendRec.advance)
	stSrPoll              // Sendrecv: suspension check before the payload is made
	stSrStart             // Sendrecv: start the send half
	stSrWait              // Sendrecv: wait for the send half's flow to finish
	stSrRetire            // Sendrecv: the send half is done
)

// Why a step hands its operation to the coroutine (runner.bail).
const (
	bailSuspend = iota + 1 // honour the pending suspension, then continue
	bailClosed             // the mailbox is closed: the receive panics
	bailSend               // a self-send or a missing connection: sendSlow
	bailRetry              // a fault-tolerant send failed: sendFT
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
	// slices elapse, a matched Recv sets op.Peer to the actual source, and
	// a Sendrecv moves From and RecvTag to Peer and Tag for its receive.
	op     Op
	stage  uint8
	bail   uint8
	res    uint8 // advance's result when the step ended (see Step)
	active bool
	// send is the pooled send record the operation holds: the send the
	// rank runs as its step, or the flow of a Sendrecv's send half.
	send *sendRec
	data payload.Buffer // the send's payload, or the matched receive's
}

// opStart returns the first stage of an operation.
func opStart(op Op) uint8 {
	switch op.Kind {
	case OpEnd:
		return stEnd
	case OpRecv:
		return stRecvPoll
	case OpCompute:
		return stCompute
	case OpSend:
		return stSend
	case OpSendrecv:
		if op.N < 0 {
			return stSendPoll
		}
		return stSrPoll
	case opSendData:
		return stSendPoll
	}
	panic(fmt.Sprintf("mpi: unknown rank-program operation %d", op.Kind))
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
		x.stage = opStart(op)
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
		x.sendDone()
	case bailRetry:
		r.sendFT(x.op.Peer, r.wire(x.op.Tag, x.data))
		x.sendDone()
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
	if x.op.Kind == OpRecv || x.op.Kind == OpSendrecv {
		x.prog.Received(x.data)
	}
	x.data = payload.Buffer{}
	x.stage = stNext
}

// sendDone ends the send of the current operation. A Sendrecv goes on to
// its receive; any other send is over.
func (x *runner) sendDone() {
	if x.op.Kind != OpSendrecv {
		x.opDone()
		return
	}
	x.op.Peer, x.op.Tag = x.op.From, x.op.RecvTag
	x.data = payload.Buffer{}
	x.stage = stRecvPoll
}

// recvDone ends the receive of the current operation. A Sendrecv whose send
// half is a flow waits for it; any other receive is over.
func (x *runner) recvDone() {
	if x.send != nil {
		x.stage = stSrWait
		return
	}
	x.opDone()
}

// retire returns the operation's send record to the world's pool.
func (x *runner) retire() {
	x.r.w.putSendRec(x.send)
	x.send = nil
}

// failed serves a send whose verbs call failed, at its start or after the
// wire: fault-tolerant mode retries it in the coroutine with sendFT, and
// otherwise the rank panics, the historical behaviour.
func (x *runner) failed(err error) uint8 {
	r := x.r
	if r.w.ftMode {
		return x.to(bailRetry)
	}
	panic(fmt.Sprintf("mpi: rank %d send to %d: %v", r.id, x.op.Peer, err))
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
			if x.op.Kind == OpSendrecv && x.op.N < 0 {
				panic("mpi: a program's OpSendrecv has no explicit payload; N must be >= 0")
			}
			x.stage = opStart(x.op)
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
					x.recvDone()
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
			x.recvDone()

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
			x.send = r.newSend(x.op.Peer, x.op.Tag, x.data)
			x.stage = stSendRun
			if x.op.Kind == OpSendrecv {
				x.stage = stSrStart
			}
			if r.suspendReq {
				return x.to(bailSuspend)
			}
		case stSendRun:
			res, err := x.send.advance(r.p)
			if res == sendParked {
				return stepParked
			}
			x.retire()
			if res == sendLocal {
				return x.to(bailSend)
			}
			if err != nil {
				return x.failed(err)
			}
			x.sendDone()

		case stSrPoll:
			x.stage = stSend
			if r.suspendReq {
				return x.to(bailSuspend)
			}
		case stSrStart:
			// In fault-tolerant mode the send half runs in the rank's own
			// process, where a retry can honour a suspension; sends never
			// wait for the receiver, so the exchange cannot deadlock.
			// Otherwise it is a flow, and the receive runs beside it.
			if r.w.ftMode {
				x.stage = stSendRun
				continue
			}
			r.beginOp()
			r.w.E.SpawnFlow(r.sendrecvName, x.send)
			x.sendDone()
		case stSrWait:
			x.stage = stSrRetire
			if s := x.send; !s.done {
				s.waiting = true
				r.p.FlowPark("event.wait", "")
				return stepParked
			}
		case stSrRetire:
			x.retire()
			x.opDone()
		}
	}
}
