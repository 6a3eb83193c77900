package bench

import "testing"

// TestSaturationQuick exercises the saturation figure end to end at CI
// scale: all rows render and every quiesce-aware history check passes.
func TestSaturationQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Saturation(Options{Scale: 0.005, Txns: 96, Seed: 7})
	checkTables(t, tables, err)
	if len(tables[0].Rows) != 4 { // 4, 8, 16, 32 threads
		t.Fatalf("saturation rows = %d", len(tables[0].Rows))
	}
}

// TestSaturationPlateau pins the PR's overload claim: at 4x the offered
// load that saturates the bounded pipeline (32 unpaced threads vs 8),
// admission control must keep committed throughput from collapsing (>= 40%
// of the near-capacity rate) and keep the commit tail bounded (p99 <= 5x),
// while actually refusing work (rejects observed). Both ratios compare two
// wall-clock runs, so they are perfGates enforced by `make
// saturation-smoke`; tier-1 keeps the histories and the observed rejects.
// Like the shards scaling assertion it is a performance test, so it does not
// run under the race detector — TestSaturationQuick keeps the sweep's
// correctness raced.
func TestSaturationPlateau(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("throughput and tail ratios are meaningless under the race detector")
	}
	o := Options{Scale: 1.0 / 15, Txns: 480, Seed: 42}
	near, err := saturationRun(o, 8)
	if err != nil {
		t.Fatal(err)
	}
	over, err := saturationRun(o, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(near.violations) != 0 || len(over.violations) != 0 {
		t.Fatalf("serializability violations: t8=%d t32=%d", len(near.violations), len(over.violations))
	}
	if over.rejects == 0 {
		t.Error("4x overload never saw the overloaded verdict")
	}
	rate := func(r saturationResult) float64 {
		if r.wall <= 0 {
			return 0
		}
		return float64(r.commits) / r.wall.Seconds()
	}
	rNear, rOver := rate(near), rate(over)
	if rNear <= 0 || rOver <= 0 {
		t.Fatalf("degenerate rates: t8=%.0f t32=%.0f", rNear, rOver)
	}
	t.Logf("saturation: 8 threads %.0f commits/sec p99 %v; 32 threads %.0f commits/sec p99 %v (%d rejects)",
		rNear, near.p99, rOver, over.p99, over.rejects)
	if rOver < 0.4*rNear {
		perfGate(t, "throughput collapsed under overload: %.0f vs %.0f commits/sec", rOver, rNear)
	}
	if near.p99 > 0 && over.p99 > 5*near.p99 {
		perfGate(t, "commit p99 grew with offered load: %v vs %v", over.p99, near.p99)
	}
}
