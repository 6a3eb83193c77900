package disk_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/paxos"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// TestOpensParentDataDir recovers a data directory written by the last
// commit that stored versions as maps (b87221d): a gob snapshot plus a WAL
// tail of OpWrite, OpDelete and OpGC records, produced by 40 replicated-log
// positions (acceptor vote, log row, two data writes and a meta-row version
// each), a compaction to 6 and a GC of the hot row at 10. The record bytes
// and the snapshot format did not change, so everything must read back —
// and the meta row's inherited history must collapse on the first drain.
func TestOpensParentDataDir(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join("testdata", "parent-b87221d")
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	store, eng, err := disk.Open(dir, disk.Options{})
	if err != nil {
		t.Fatalf("open parent-written dir: %v", err)
	}
	lg := replog.Open(store, "g")
	if got, horizon := lg.Applied(), lg.CompactedTo(); got != 40 || horizon != 6 {
		t.Fatalf("recovered watermark %d, horizon %d; want 40, 6", got, horizon)
	}
	hot := replog.DataKey("g", "hot")
	for _, c := range []struct {
		key  string
		at   int64
		want string
	}{{hot, kvstore.Latest, "h40"}, {hot, 12, "h12"}, {replog.DataKey("g", "k3"), kvstore.Latest, "v38"}} {
		if v, _, err := store.Read(c.key, c.at); err != nil || v["v"] != c.want {
			t.Fatalf("%s@%d = %v %v, want %s", c.key, c.at, v, err, c.want)
		}
	}
	if _, _, err := store.Read(hot, 9); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("hot@9 survived the GC at 10: %v", err)
	}
	if lg.Has(5) || !lg.Has(6) {
		t.Fatalf("log rows: Has(5)=%v Has(6)=%v, want compacted below 6", lg.Has(5), lg.Has(6))
	}
	bal, val, err := paxos.NewAcceptor(store).Vote("g", 40)
	if entry, derr := wal.Decode(val); err != nil || derr != nil || bal != paxos.FastBallot || !entry.Contains("t40") {
		t.Fatalf("acceptor vote at 40 = ballot %d, %v (%v, %v)", bal, entry, err, derr)
	}

	meta := replog.MetaKey("g")
	if n := store.Versions(meta); n < 40 {
		t.Fatalf("fixture's meta row has %d versions; expected the parent's one-per-drain history", n)
	}
	next := wal.Encode(wal.NewEntry(wal.Txn{ID: "t41", Writes: map[string]string{"hot": "h41"}}))
	if _, err := lg.Append(41, next); err != nil {
		t.Fatal(err)
	}
	if err := lg.WaitApplied(context.Background(), 41); err != nil {
		t.Fatal(err)
	}
	if n := store.Versions(meta); n != 1 {
		t.Fatalf("meta row holds %d versions after a drain, want 1", n)
	}
	lg.Close()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	store2, eng2, err := disk.Open(dir, disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	lg2 := replog.Open(store2, "g")
	defer lg2.Close()
	if got, n := lg2.Applied(), store2.Versions(meta); got != 41 || n != 1 {
		t.Fatalf("after reopen: watermark %d, %d meta versions; want 41, 1", got, n)
	}
}
