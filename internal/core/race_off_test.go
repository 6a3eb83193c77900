//go:build !race

package core

// raceEnabled reports whether the race detector is compiled in. Its
// instrumentation allocates, so the alloc pins skip under -race (the plain
// tier-1 run keeps them enforced).
const raceEnabled = false
