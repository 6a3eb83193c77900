//go:build !race

package paxos

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates on paths that are allocation-free in a plain
// build, so the alloc pins skip under -race (the plain tier-1 run keeps
// them enforced).
const raceEnabled = false
