//go:build race

package replog

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
