//go:build race

package payload

// raceEnabled reports whether the race detector is on; allocation guards
// skip under it.
const raceEnabled = true
