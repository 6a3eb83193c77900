package disk_test

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/replog"
)

// TestOpensParentDataDir pins what Open makes of a data directory written by
// commit b87221d (testdata/parent-b87221d: a gob snapshot at seq 101 plus a
// WAL tail of 106 OpWrite, OpDelete and OpGC records, left by 40
// replicated-log positions, a compaction to 6 and a GC of the hot row at 10).
// The gob snapshot format is gone, and nothing reads it any more: Open
// refuses the directory by the snapshot's name, says an older build wrote it,
// and touches nothing. The record format is the one that build wrote, so its
// WAL still replays.
func TestOpensParentDataDir(t *testing.T) {
	src := filepath.Join("testdata", "parent-b87221d")
	const snap, tail = "snap-00000000000000000101.snap", "wal-00000000000000000102.log"
	fixture := map[string][]byte{}
	for _, name := range []string{snap, tail} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		fixture[name] = b
	}
	populate := func(dir string, as map[string]string) {
		t.Helper()
		for name, from := range as {
			if err := os.WriteFile(filepath.Join(dir, name), fixture[from], 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}

	t.Run("snapshot refused by name", func(t *testing.T) {
		dir := t.TempDir()
		populate(dir, map[string]string{snap: snap, tail: tail})
		_, _, err := disk.Open(dir, disk.Options{})
		if err == nil {
			t.Fatal("opened a directory whose snapshot is a gob image")
		}
		if msg := err.Error(); !strings.Contains(msg, snap) || !strings.Contains(msg, "older build") {
			t.Fatalf("refusal does not name the snapshot and its origin: %v", err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil || len(ents) != len(fixture) {
			t.Fatalf("directory after the refusal: %v (%v), want the two fixture files", ents, err)
		}
		for name, want := range fixture {
			if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("%s changed by the refused Open (%v)", name, err)
			}
		}
	})

	t.Run("WAL replays", func(t *testing.T) {
		// The tail alone, as the first segment of a directory with no
		// snapshot: sequence numbers are positional, so renaming is all it
		// takes. Its deletes and GCs find nothing to remove; its writes are
		// positions 21 to 40.
		dir := t.TempDir()
		populate(dir, map[string]string{"wal-00000000000000000001.log": tail})
		store, eng, err := disk.Open(dir, disk.Options{})
		if err != nil {
			t.Fatalf("open a WAL written by the parent: %v", err)
		}
		defer eng.Close()
		hot := replog.DataKey("g", "hot")
		for _, c := range []struct {
			key  string
			at   int64
			want string
		}{{hot, kvstore.Latest, "h40"}, {hot, 21, "h21"}, {replog.DataKey("g", "k0"), kvstore.Latest, "v40"}} {
			if v, _, err := store.Read(c.key, c.at); err != nil || v["v"] != c.want {
				t.Fatalf("%s@%d = %v %v, want %s", c.key, c.at, v, err, c.want)
			}
		}
		if v, _, err := store.Read(replog.MetaKey("g"), kvstore.Latest); err != nil || v["last"] != "40" {
			t.Fatalf("meta row = %v %v, want last=40", v, err)
		}
	})
}
