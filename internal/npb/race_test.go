//go:build race

package npb

// raceEnabled reports whether the race detector is on; allocation guards
// skip under it.
const raceEnabled = true
