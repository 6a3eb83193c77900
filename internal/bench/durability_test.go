package bench

import "testing"

// TestDurabilityQuick exercises the durability figure end to end at CI
// scale: both rows render and all cells complete without error.
func TestDurabilityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Durability(Options{Txns: 96, Seed: 7})
	checkTables(t, tables, err)
	if len(tables[0].Rows) != 2 { // memory, disk
		t.Fatalf("durability rows = %d", len(tables[0].Rows))
	}
}

// TestDurabilityBatchAbsorption pins the figure's group-commit claim on the
// disk row: a lone writer pays exactly one fsync per acknowledged write (the
// per-write baseline), 16 concurrent writers fold at least three writes into
// each fsync, and that absorption buys at least 3x the w=1 throughput with
// the same guarantee. Like the shards and saturation assertions it is a
// performance test, so it does not run under the race detector —
// TestDurabilityQuick and the disk package's own tests keep the engine's
// correctness raced.
func TestDurabilityBatchAbsorption(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("throughput and fsync ratios are meaningless under the race detector")
	}
	o := Options{Txns: 480, Seed: 42}
	lone, err := durabilityRun(o, "disk", 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := durabilityRun(o, "disk", 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("durability disk: w=1 %.0f writes/sec (%d fsyncs / %d writes), w=16 %.0f writes/sec (%d fsyncs / %d writes)",
		lone.perSec, lone.fsyncs, lone.writes, many.perSec, many.fsyncs, many.writes)
	if lone.perSec <= 0 || many.perSec <= 0 {
		t.Fatalf("degenerate rates: w=1 %.0f, w=16 %.0f", lone.perSec, many.perSec)
	}
	// Machine-independent absorption checks first: a lone writer has nobody to
	// share an fsync with, and 16 writers must share.
	if lone.fsyncs != uint64(lone.writes) {
		t.Errorf("w=1: %d fsyncs for %d writes (want one per write)", lone.fsyncs, lone.writes)
	}
	if many.fsyncs*3 > uint64(many.writes) {
		t.Errorf("w=16 barely absorbed: %d fsyncs for %d writes (want <= writes/3)", many.fsyncs, many.writes)
	}
	if many.perSec < 3*lone.perSec {
		// The one wall-clock comparison here; the fsync counts above are
		// machine-independent and stay enforced in tier-1.
		perfGate(t, "w=16 throughput %.0f writes/sec < 3x w=1 %.0f writes/sec", many.perSec, lone.perSec)
	}
}
