//go:build race

package exp

// raceEnabled reports whether the race detector is on; paper-scale tests
// skip under it.
const raceEnabled = true
