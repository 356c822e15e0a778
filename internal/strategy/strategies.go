package strategy

import (
	"fmt"
	"time"

	"ibmig/internal/sim"
)

// defaultReactiveInterval is the periodic checkpoint cadence for policies
// that rely on reactive restart (ReactiveCR, Adaptive) when none is
// configured.
const defaultReactiveInterval = sim.Duration(30 * time.Second)

// attemptFailed is the shared decision tree for an aborted migration
// attempt — the hardened form of the Job Manager's historical recovery
// logic: retry onto the next spare while source, spares and the retry budget
// allow; resume in place (with a distinct terminal reason) when they do not;
// fall back to checkpoint/restart when the source is gone.
func attemptFailed(v View) []Decision {
	if v.SourceUsable() {
		if v.SpareAvailable() && v.Retries() < MaxSpareRetries {
			// RetrySpare first; ResumeInPlace is the fallthrough if the
			// spare vanishes between the decision and its application.
			return []Decision{{Kind: RetrySpare}, {Kind: ResumeInPlace, Reason: ReasonSpareExhausted}}
		}
		reason := ReasonSpareExhausted
		if v.SpareAvailable() {
			reason = ReasonRetryBudget
		}
		return []Decision{{Kind: ResumeInPlace, Reason: reason}}
	}
	// Source dead or vacated: the images moved with it. The CR fallback
	// (which itself abandons when no checkpoint exists) is the only road.
	return []Decision{{Kind: RestartCR}}
}

// ProactiveMigrate is the paper's policy and the default: migrate on a
// failure prediction, retry aborted attempts onto fresh spares, fall back to
// the last (user-taken) checkpoint only when the source is lost. It takes no
// periodic checkpoints — the bet the paper makes, and the one that loses
// when a failure arrives unpredicted.
type ProactiveMigrate struct{}

// CheckpointInterval implements Strategy (no periodic checkpoints).
func (ProactiveMigrate) CheckpointInterval() sim.Duration { return 0 }

// Decide implements Strategy.
func (ProactiveMigrate) Decide(v View, ev Event) []Decision {
	switch ev.Kind {
	case EvPredicted:
		return []Decision{{Kind: Migrate, Node: ev.Node}}
	case EvNodeDown:
		if !v.HostsRanks(ev.Node) {
			return nil
		}
		return []Decision{{Kind: RestartCR, Node: ev.Node}}
	case EvAttemptFailed:
		return attemptFailed(v)
	}
	return nil
}

// ReactiveCR is the classic baseline the paper argues against: ignore
// predictions, checkpoint the whole job periodically, and restart from the
// last checkpoint when a node actually dies. It pays steady checkpoint
// overhead plus rework on every failure — but it needs no warning at all.
type ReactiveCR struct {
	// Interval overrides the periodic checkpoint cadence (default 30 s).
	Interval sim.Duration
}

// CheckpointInterval implements Strategy.
func (s ReactiveCR) CheckpointInterval() sim.Duration {
	if s.Interval > 0 {
		return s.Interval
	}
	return defaultReactiveInterval
}

// Decide implements Strategy.
func (s ReactiveCR) Decide(v View, ev Event) []Decision {
	switch ev.Kind {
	case EvTick:
		return []Decision{{Kind: Checkpoint}}
	case EvNodeDown:
		if !v.HostsRanks(ev.Node) {
			return nil
		}
		return []Decision{{Kind: RestartCR, Node: ev.Node}}
	case EvAttemptFailed:
		// Externally triggered migrations still abort like any other; a
		// reactive policy never burns spares chasing them.
		if v.SourceUsable() {
			return []Decision{{Kind: ResumeInPlace}}
		}
		return []Decision{{Kind: RestartCR}}
	}
	return nil
}

// Replicate is the FTHP-MPI-style policy: on the first warning (or a
// prediction) for a node, stage a hot replica of its ranks on a shadow
// spare; when the node dies, restart from the replica — near-zero rework,
// but a spare is tied down per protected node and an unwarned death finds no
// replica.
type Replicate struct{}

// CheckpointInterval implements Strategy (replicas, not checkpoints).
func (Replicate) CheckpointInterval() sim.Duration { return 0 }

// Decide implements Strategy.
func (Replicate) Decide(v View, ev Event) []Decision {
	switch ev.Kind {
	case EvWarn, EvPredicted:
		if v.HostsRanks(ev.Node) && !v.HasReplica(ev.Node) {
			return []Decision{{Kind: StageReplica, Node: ev.Node}}
		}
	case EvNodeDown:
		if !v.HostsRanks(ev.Node) {
			return nil
		}
		return []Decision{
			{Kind: RestoreReplica, Node: ev.Node},
			{Kind: RestartCR, Node: ev.Node},
		}
	case EvAttemptFailed:
		return attemptFailed(v)
	}
	return nil
}

// Adaptive hedges: migrate on predictions (the cheap save), keep periodic
// checkpoints as the backstop for unpredicted deaths, and stage a replica
// for a node that keeps warning without ever crossing into a prediction.
type Adaptive struct {
	// Interval overrides the backstop checkpoint cadence (default 30 s).
	Interval sim.Duration
	// WarnReplicaThreshold is the repeat-warning count that triggers
	// replication (default 3, above the predictor's own threshold so a
	// warning burst that becomes a prediction migrates instead).
	WarnReplicaThreshold int
}

// CheckpointInterval implements Strategy.
func (s Adaptive) CheckpointInterval() sim.Duration {
	if s.Interval > 0 {
		return s.Interval
	}
	return defaultReactiveInterval
}

// Decide implements Strategy.
func (s Adaptive) Decide(v View, ev Event) []Decision {
	threshold := s.WarnReplicaThreshold
	if threshold <= 0 {
		threshold = 3
	}
	switch ev.Kind {
	case EvPredicted:
		return []Decision{{Kind: Migrate, Node: ev.Node}}
	case EvWarn:
		if v.WarnCount(ev.Node) >= threshold && v.HostsRanks(ev.Node) && !v.HasReplica(ev.Node) {
			return []Decision{{Kind: StageReplica, Node: ev.Node}}
		}
	case EvTick:
		return []Decision{{Kind: Checkpoint}}
	case EvNodeDown:
		if !v.HostsRanks(ev.Node) {
			return nil
		}
		return []Decision{
			{Kind: RestoreReplica, Node: ev.Node},
			{Kind: RestartCR, Node: ev.Node},
		}
	case EvAttemptFailed:
		return attemptFailed(v)
	}
	return nil
}

// Names returns the registered strategy names in canonical order.
func Names() []string {
	return []string{"proactive", "reactive-cr", "replicate", "adaptive"}
}

// ByName returns the named strategy with default tuning.
func ByName(name string) (Strategy, error) {
	switch name {
	case "", "proactive":
		return ProactiveMigrate{}, nil
	case "reactive-cr":
		return ReactiveCR{}, nil
	case "replicate":
		return Replicate{}, nil
	case "adaptive":
		return Adaptive{}, nil
	}
	return nil, fmt.Errorf("strategy: unknown strategy %q (have %v)", name, Names())
}
