//go:build !race

package sim

// raceEnabled reports whether the race detector is on; allocation guards
// skip under it.
const raceEnabled = false
