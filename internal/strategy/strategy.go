// Package strategy defines the pluggable fault-tolerance policy layer the
// Job Manager consults: strategies consume a stream of protocol events
// (health warnings, failure predictions, node deaths, aborted migration
// attempts, periodic ticks) and emit decisions (migrate, checkpoint, restart,
// replicate). The Job Manager owns all mechanism — suspension,
// spare selection, checkpoint/restart execution, watchdogs — and the strategy
// owns only the policy choice, so the paper's proactive-migration decision
// tree, a reactive checkpoint/restart baseline, FTHP-MPI-style replication,
// and an adaptive hybrid all plug into the same machinery and can be raced
// against each other under identical fault schedules (exp.RunCampaign).
package strategy

// EventKind classifies what happened.
type EventKind int

// Event kinds.
const (
	// EvPredicted: the health predictor expects Node to fail soon.
	EvPredicted EventKind = iota
	// EvWarn: a sensor on Node crossed its warning threshold.
	EvWarn
	// EvNodeDown: Node crashed (cluster monitor NODE_DOWN) while no
	// migration involving it was in flight.
	EvNodeDown
	// EvAttemptFailed: a migration attempt was aborted (fault, failure
	// report, or phase deadline) and the job sits globally suspended.
	EvAttemptFailed
	// EvTick: a periodic policy tick (the strategy's checkpoint cadence).
	EvTick
)

func (k EventKind) String() string {
	switch k {
	case EvPredicted:
		return "predicted"
	case EvWarn:
		return "warn"
	case EvNodeDown:
		return "node-down"
	case EvAttemptFailed:
		return "attempt-failed"
	case EvTick:
		return "tick"
	}
	return "unknown"
}

// Event is one occurrence presented to a strategy.
type Event struct {
	Kind EventKind
	Node string // the node concerned (victim, warned, or blamed), if any
}

// DecisionKind classifies what the strategy wants done.
type DecisionKind int

// Decision kinds. For a single event a strategy returns decisions in
// preference order; the Job Manager applies the first one that is feasible
// and falls through to the next when it is not (no spare left, no checkpoint,
// no staged replica).
const (
	// Ignore: do nothing.
	Ignore DecisionKind = iota
	// Migrate: proactively migrate the ranks off Decision.Node.
	Migrate
	// RetrySpare: retry the aborted migration onto the next usable spare.
	RetrySpare
	// ResumeInPlace: lift the suspension and continue where the job was.
	ResumeInPlace
	// RestartCR: restore the whole job from the last checkpoint, dead
	// nodes replaced by spares.
	RestartCR
	// RestoreReplica: restart Decision.Node's ranks from their staged hot
	// replica on the shadow node.
	RestoreReplica
	// StageReplica: stage a hot replica of Decision.Node's ranks on a spare.
	StageReplica
	// Checkpoint: take a coordinated full-job checkpoint now.
	Checkpoint
)

func (k DecisionKind) String() string {
	switch k {
	case Ignore:
		return "ignore"
	case Migrate:
		return "migrate"
	case RetrySpare:
		return "retry-spare"
	case ResumeInPlace:
		return "resume-in-place"
	case RestartCR:
		return "restart-cr"
	case RestoreReplica:
		return "restore-replica"
	case StageReplica:
		return "stage-replica"
	case Checkpoint:
		return "checkpoint"
	}
	return "unknown"
}

// Decision is one action a strategy requests.
type Decision struct {
	Kind   DecisionKind
	Node   string // target node, where meaningful
	Reason string // terminal reason (exhaustion) to record, if any
}

// Terminal reasons attached to exhaustion decisions, surfaced through
// JobManager.TerminalReason so tests and operators can tell a silent
// resume-in-place from a spare-pool or retry-budget exhaustion.
const (
	ReasonSpareExhausted = "spare pool exhausted"
	ReasonRetryBudget    = "spare retry budget exhausted"
)

// View is the read-only state a strategy may consult while deciding. All
// methods are cheap and side-effect free.
type View interface {
	// SpareAvailable reports whether a usable spare remains for the current
	// attempt (excluding spares already burned by it).
	SpareAvailable() bool
	// SourceUsable reports whether the aborted attempt's source node can
	// still run its ranks (alive, adapter up, not blamed, not vacated).
	SourceUsable() bool
	// HostsRanks reports whether the node currently hosts MPI ranks.
	HostsRanks(node string) bool
	// WarnCount returns the number of sensor warnings seen for the node.
	WarnCount(node string) int
	// HasReplica reports whether a ready hot replica exists for the node.
	HasReplica(node string) bool
	// Retries returns the spare retries already spent on the current
	// trigger's attempt chain.
	Retries() int
}

// Strategy is one fault-tolerance policy.
type Strategy interface {
	// Decide maps one event to the actions to take, in preference order.
	Decide(v View, ev Event) []Decision
	// Checkpoints reports whether this policy takes periodic full-job
	// checkpoints; the Job Manager's options set their cadence.
	Checkpoints() bool
}
