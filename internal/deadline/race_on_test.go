//go:build race

package deadline

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
