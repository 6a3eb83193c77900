package bench

import "testing"

// TestShardsQuick exercises the shards figure end to end at CI scale: all
// rows render and every per-group history check passes.
func TestShardsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Shards(Options{Scale: 0.005, Txns: 96, Seed: 7})
	checkTables(t, tables, err)
	if len(tables[0].Rows) != 5 { // 1, 2, 4, 8, 16 groups
		t.Fatalf("shards rows = %d", len(tables[0].Rows))
	}
}

// TestShardsScaling pins the PR's horizontal-scaling claim: at the paper's
// default sim scale, 8 groups must deliver at least 2.5x the aggregate
// commits/sec of 1 group under the same fixed offered load (ISSUE 5
// acceptance; the measured figure runs around 4-6x). The ratio is of two
// wall-clock runs, so it is a perfGate: tier-1 checks the runs and their
// histories, `make shards-smoke` enforces the floor. It is a performance
// assertion, so it does not run under the race detector: race
// instrumentation makes the sim CPU-bound instead of latency-bound and the
// ratio it would measure is the instrumentation's, not the system's. The
// race job still runs TestShardsQuick (full sweep, per-group
// serializability checks) — correctness stays raced, only the throughput
// ratio is exempt.
func TestShardsScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("throughput ratio is meaningless under the race detector")
	}
	o := Options{Scale: 1.0 / 15, Txns: 480, Seed: 42}
	one, err := shardsRun(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := shardsRun(o, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.violations) != 0 || len(eight.violations) != 0 {
		t.Fatalf("serializability violations: g1=%d g8=%d", len(one.violations), len(eight.violations))
	}
	rate := func(r shardsResult) float64 {
		if r.wall <= 0 {
			return 0
		}
		return float64(r.commits) / r.wall.Seconds()
	}
	r1, r8 := rate(one), rate(eight)
	if r1 <= 0 || r8 <= 0 {
		t.Fatalf("degenerate rates: g1=%.0f g8=%.0f", r1, r8)
	}
	ratio := r8 / r1
	const floor = 2.5
	t.Logf("shards scaling: 1 group %.0f commits/sec, 8 groups %.0f commits/sec (%.2fx, floor %.1fx)",
		r1, r8, ratio, floor)
	if ratio < floor {
		perfGate(t, "8-group speedup %.2fx below the %.1fx floor", ratio, floor)
	}
}
