//go:build race

package paxos

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = true
