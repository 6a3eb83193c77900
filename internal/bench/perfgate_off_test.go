//go:build !perfgate

package bench

import "testing"

// perfGate reports a wall-clock comparison that came out on the wrong side.
// Two timed runs on a shared host are not a measuring stick — the same
// commit has measured an 8-group speedup of 2.27x and of 5x — so the default
// build, which is what tier-1 `go test ./...` runs, only logs it. The
// figure smoke targets (make shards-smoke, saturation-smoke,
// durability-smoke; the CI "bench" job) build with -tags perfgate, where it
// fails the test.
func perfGate(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Logf("wall-clock gate missed (enforced only with -tags perfgate): "+format, args...)
}
