package metrics

import "ibmig/internal/payload"

// Arena is a snapshot of the extent-arena telemetry (see payload.ArenaStats).
// Like DataPlane it is process-wide and host-side only; capture before and
// after a run and Delta to attribute activity.
type Arena = payload.ArenaStats

// CaptureArena snapshots the current arena counter values.
func CaptureArena() Arena { return payload.ArenaSnapshot() }
