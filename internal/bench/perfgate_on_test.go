//go:build perfgate

package bench

import "testing"

// perfGate fails the test on a missed wall-clock comparison; see the
// untagged twin for why the default build only logs.
func perfGate(t *testing.T, format string, args ...any) {
	t.Helper()
	t.Errorf(format, args...)
}
