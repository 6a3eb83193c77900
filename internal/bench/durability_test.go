package bench

import "testing"

// TestDurabilityQuick exercises the durability figure end to end at CI
// scale: every policy row renders and all cells complete without error.
func TestDurabilityQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tables, err := Durability(Options{Txns: 96, Seed: 7})
	checkTables(t, tables, err)
	if len(tables[0].Rows) != 4 { // memory, sync, batch, interval
		t.Fatalf("durability rows = %d", len(tables[0].Rows))
	}
}

// TestDurabilityBatchAbsorption pins the PR's group-commit claim: with 16
// concurrent writers, the batch policy must deliver at least 3x the
// acknowledged-write throughput of sync-every-write while providing the
// same guarantee, and the absorption must be real — batch's fsync count
// stays well below the write count, while sync pays one fsync per write.
// Like the shards and saturation assertions it is a performance test, so
// it does not run under the race detector — TestDurabilityQuick and the
// disk package's own tests keep the engine's correctness raced.
func TestDurabilityBatchAbsorption(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if raceEnabled {
		t.Skip("throughput and fsync ratios are meaningless under the race detector")
	}
	o := Options{Txns: 480, Seed: 42}
	sync, err := durabilityRun(o, "sync", 16)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := durabilityRun(o, "batch", 16)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("durability w=16: sync %.0f writes/sec (%d fsyncs / %d writes), batch %.0f writes/sec (%d fsyncs / %d writes)",
		sync.perSec, sync.fsyncs, sync.writes, batch.perSec, batch.fsyncs, batch.writes)
	if sync.perSec <= 0 || batch.perSec <= 0 {
		t.Fatalf("degenerate rates: sync=%.0f batch=%.0f", sync.perSec, batch.perSec)
	}
	// Machine-independent absorption check first: group commit must fold many
	// acknowledged writes into each fsync, where sync-every-write cannot fold
	// any (one fsync per write, always).
	if sync.fsyncs != uint64(sync.writes) {
		t.Errorf("sync policy absorbed fsyncs: %d fsyncs for %d writes", sync.fsyncs, sync.writes)
	}
	if batch.fsyncs*3 > uint64(batch.writes) {
		t.Errorf("batch policy barely absorbed: %d fsyncs for %d writes (want <= writes/3)", batch.fsyncs, batch.writes)
	}
	if batch.perSec < 3*sync.perSec {
		// The one wall-clock comparison here; the fsync counts above are
		// machine-independent and stay enforced in tier-1.
		perfGate(t, "batch throughput %.0f writes/sec < 3x sync %.0f writes/sec", batch.perSec, sync.perSec)
	}
}
