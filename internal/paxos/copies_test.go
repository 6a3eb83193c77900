package paxos

import (
	"runtime"
	"strings"
	"testing"
)

// TestAcceptCopiesPayloadOnce: a vote on a fresh row costs one copy of the
// accept's payload, made straight into the packed row, and the row never
// aliases the payload — a transport's pooled decode scratch, reused for the
// next request.
func TestAcceptCopiesPayloadOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	a := newAcceptor()
	payload := []byte(strings.Repeat("x", 64<<10))
	accept := func(pos int64) {
		if res, err := a.Accept("g", pos, FastBallot, payload); err != nil || !res.OK {
			t.Fatalf("accept %d: %+v %v", pos, res, err)
		}
	}
	accept(1) // warm the store's maps
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for pos := int64(2); pos < 2+runs; pos++ {
		accept(pos)
	}
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d-byte payload: %d bytes per accept", len(payload), per)
	if per >= uint64(len(payload))*3/2 {
		t.Errorf("an accept on a fresh row allocates %d bytes for a %d-byte payload, want one copy", per, len(payload))
	}
	payload[0] = 'y'
	if _, vote, err := a.Vote("g", 1); err != nil || vote[0] != 'x' {
		t.Fatalf("the vote changed with the payload it was cast from: %q… (%v)", vote[:1], err)
	}
}
