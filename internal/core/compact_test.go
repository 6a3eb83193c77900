package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/network"
	"paxoscp/internal/wal"
)

// seedLog applies n sequential single-write entries to the given services.
func seedLog(t *testing.T, services map[string]*Service, dcs []string, group string, n int64) {
	t.Helper()
	for pos := int64(1); pos <= n; pos++ {
		b := entryBytes(fmt.Sprintf("t%d", pos), pos-1, map[string]string{
			"k":                     fmt.Sprintf("v%d", pos),
			fmt.Sprintf("u%d", pos): "once",
		})
		for _, dc := range dcs {
			if err := services[dc].ApplyDecided(group, pos, b); err != nil {
				t.Fatalf("apply %s/%d at %s: %v", group, pos, dc, err)
			}
		}
	}
}

func TestCompactScavengesBelowHorizon(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A"})
	s := services["A"]
	seedLog(t, services, []string{"A"}, "g", 10)

	horizon, err := s.Compact("g", 7)
	if err != nil {
		t.Fatal(err)
	}
	if horizon != 7 {
		t.Fatalf("horizon = %d, want 7", horizon)
	}
	if got := s.CompactedTo("g"); got != 7 {
		t.Fatalf("CompactedTo = %d, want 7", got)
	}
	// Entries below the horizon are gone; horizon and above survive.
	if _, ok := s.DecidedEntry("g", 6); ok {
		t.Fatal("entry 6 survived compaction")
	}
	for pos := int64(7); pos <= 10; pos++ {
		if _, ok := s.DecidedEntry("g", pos); !ok {
			t.Fatalf("entry %d lost by compaction", pos)
		}
	}
	// Reads at or above the horizon still work.
	resp := ask(t, s, "A", network.Message{Kind: network.KindRead, Group: "g", Key: "k", TS: 8})
	if !resp.OK || resp.Value != "v8" {
		t.Fatalf("read@8 after compact = %+v", resp)
	}
	// Multi-version history below the horizon is gone.
	if _, _, err := s.store.Read(dataKey("g", "k"), 3); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("old version survived GC: %v", err)
	}
	// The applied horizon is untouched.
	if got := s.LastApplied("g"); got != 10 {
		t.Fatalf("LastApplied = %d, want 10", got)
	}
}

func TestCompactClampsToApplied(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A"})
	s := services["A"]
	seedLog(t, services, []string{"A"}, "g", 3)
	horizon, err := s.Compact("g", 100)
	if err != nil {
		t.Fatal(err)
	}
	if horizon != 3 {
		t.Fatalf("horizon = %d, want clamp to 3", horizon)
	}
	// Compacting backwards is a no-op.
	horizon, err = s.Compact("g", 1)
	if err != nil || horizon != 3 {
		t.Fatalf("backward compact = (%d, %v)", horizon, err)
	}
}

func TestFetchLogReportsCompacted(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A"})
	s := services["A"]
	seedLog(t, services, []string{"A"}, "g", 5)
	if _, err := s.Compact("g", 4); err != nil {
		t.Fatal(err)
	}
	resp := ask(t, s, "B", network.Message{Kind: network.KindFetchLog, Group: "g", Pos: 2})
	if resp.OK || resp.Verdict != network.VerdictCompacted || resp.TS != 4 {
		t.Fatalf("fetch of compacted position = %+v", resp)
	}
	// Position at the horizon is still served.
	resp = ask(t, s, "B", network.Message{Kind: network.KindFetchLog, Group: "g", Pos: 4})
	if !resp.OK {
		t.Fatalf("fetch at horizon = %+v", resp)
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A", "B"})
	seedLog(t, services, []string{"A"}, "g", 6)
	ctx := context.Background()

	if err := services["B"].installFrom(ctx, "A", "g"); err != nil {
		t.Fatal(err)
	}
	if got := services["B"].LastApplied("g"); got != 6 {
		t.Fatalf("B horizon after install = %d, want 6", got)
	}
	resp := ask(t, services["B"], "c", network.Message{Kind: network.KindRead, Group: "g", Key: "k", TS: 6})
	if !resp.OK || resp.Value != "v6" {
		t.Fatalf("read from installed snapshot = %+v", resp)
	}
	// A snapshot that is not ahead is declined (fetchSnapshot moves on to the
	// next peer) and changes nothing.
	if err := services["B"].installFrom(ctx, "A", "g"); err == nil || !strings.Contains(err.Error(), "not ahead") {
		t.Fatalf("install of a snapshot at our own horizon: %v", err)
	}
	if got := services["B"].LastApplied("g"); got != 6 {
		t.Fatalf("B horizon after the declined install = %d, want 6", got)
	}
}

// testPageTimeout bounds one page round trip in the transfer tests. None of
// them waits for it to expire, so it is generous: a page handler that commits
// and compacts before answering, under -race on a loaded box, needs the room.
const testPageTimeout = 5 * time.Second

// scriptedPeer returns a service C whose one peer, P, answers snapshot
// requests with the given pages in order (and nothing else).
func scriptedPeer(t *testing.T, horizon int64, pages ...[]byte) *Service {
	t.Helper()
	sim := network.NewSim(network.NewTopology("C", "P"), network.SimConfig{Seed: 3})
	t.Cleanup(sim.Close)
	sim.EndpointAsync("P", func(_ string, req network.Message, reply func(network.Message)) {
		if req.Kind != network.KindSnapshot {
			reply(network.Status(false, "scripted peer"))
			return
		}
		n := 0
		if req.Found {
			n, _ = strconv.Atoi(req.Key)
		}
		reply(network.Message{Kind: network.KindValue, OK: true, TS: horizon,
			Payload: pages[n], Key: strconv.Itoa(n + 1), Found: n+1 < len(pages)})
	})
	var c *Service
	c = NewService("C", kvstore.New(), sim.EndpointAsync("C", func(from string, req network.Message, reply func(network.Message)) {
		c.AsyncHandler()(from, req, reply)
	}), WithServiceTimeout(testPageTimeout))
	t.Cleanup(c.Close)
	return c
}

// TestInstallSnapshotRejectsGarbage: a page from a peer is outside input.
// Whatever is wrong with it, the install returns an error, applies nothing of
// the failing page or after it, and leaves the watermark where it was.
func TestInstallSnapshotRejectsGarbage(t *testing.T) {
	const h = 5
	write := func(key string, ts int64, v kvstore.Packed) []byte {
		return kvstore.AppendRecord(nil, kvstore.Mutation{Op: kvstore.OpWrite, Key: key, TS: ts, Value: v})
	}
	meta := func(migrations string) kvstore.Packed {
		return kvstore.PackAttrs("compacted", "5", "epoch", "0", "epochpos", "0", "last", "5", "master", "", "migrations", migrations)
	}
	header := write("meta/g", h, meta(""))
	row := func(key string, ts int64) []byte { return write(key, ts, kvstore.PackAttrs("v", "x")) }
	join := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }
	good := join(header, row("data/g/a", 2))

	for _, c := range []struct {
		name  string
		pages [][]byte
		want  string // in the error
		kept  string // a row of an earlier, valid page: applied, and invisible
	}{
		{"junk", [][]byte{[]byte("junk")}, "torn record", ""},
		{"empty first page", [][]byte{nil}, "does not open with the header", ""},
		{"first page without a header", [][]byte{row("data/g/a", 2)}, "does not open with the header", ""},
		{"header for another horizon", [][]byte{write("meta/g", h, kvstore.PackAttrs("compacted", "4", "last", "4"))}, "horizon 4", ""},
		{"unparsable migrations", [][]byte{join(write("meta/g", h, meta("[{")), row("data/g/a", 2))}, "migrations", ""},
		{"unparsable watermark", [][]byte{write("meta/g", h, kvstore.PackAttrs("compacted", "5", "last", "five"))}, "not a number", ""},
		{"key outside the group's data", [][]byte{good, row("paxos/g/3", 0)}, "not a version of a row under data/g/", "data/g/a"},
		{"key of another group", [][]byte{good, row("data/g2/a", 2)}, "not a version of a row under data/g/", "data/g/a"},
		{"not a write", [][]byte{good, kvstore.AppendRecord(nil, kvstore.Mutation{Op: kvstore.OpDelete, Key: "data/g/a"})}, "not a version", "data/g/a"},
		{"version above the horizon", [][]byte{good, join(row("data/g/b", 3), row("data/g/c", h+1))}, `"data/g/c"@6 is not a version`, "data/g/a"},
		{"torn second page", [][]byte{good, row("data/g/b", 3)[:7]}, "torn record", "data/g/a"},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := scriptedPeer(t, h, c.pages...)
			err := s.installFrom(context.Background(), "P", "g")
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("install = %v, want an error mentioning %q", err, c.want)
			}
			if got := s.LastApplied("g"); got != 0 {
				t.Fatalf("watermark moved to %d", got)
			}
			rows, _, err := s.store.ScanPrefix("", "", 0, kvstore.Latest)
			if err != nil {
				t.Fatal(err)
			}
			var keys []string
			for _, r := range rows {
				keys = append(keys, r.Key)
			}
			if want := strings.Fields(c.kept); !slices.Equal(keys, want) {
				t.Fatalf("rows in the store after the refusal: %v, want %v", keys, want)
			}
		})
	}

	// The same pages without the fault install.
	s := scriptedPeer(t, h, good, join(row("data/g/b", 3), row("data/g/c", h)))
	if err := s.installFrom(context.Background(), "P", "g"); err != nil || s.LastApplied("g") != h {
		t.Fatalf("valid pages: %v, watermark %d", err, s.LastApplied("g"))
	}
}

// TestLaggardCatchesUpViaSnapshot is the full scenario: C misses everything,
// A and B compact past C's position, and C's read triggers snapshot
// transfer followed by per-entry catch-up for the suffix.
func TestLaggardCatchesUpViaSnapshot(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A", "B", "C"})
	// Positions 1-10 decided at A and B only.
	seedLog(t, services, []string{"A", "B"}, "g", 10)
	// A and B compact below 8: entries 1-7 scavenged.
	for _, dc := range []string{"A", "B"} {
		if _, err := services[dc].Compact("g", 8); err != nil {
			t.Fatal(err)
		}
	}
	// C must serve a read at position 10.
	resp := ask(t, services["C"], "client", network.Message{Kind: network.KindRead, Group: "g", Key: "k", TS: 10})
	if !resp.OK || resp.Value != "v10" {
		t.Fatalf("read after snapshot catch-up = %+v", resp)
	}
	if got := services["C"].LastApplied("g"); got != 10 {
		t.Fatalf("C horizon = %d, want 10", got)
	}
	// Data written only in compacted entries is present via the snapshot.
	resp = ask(t, services["C"], "client", network.Message{Kind: network.KindRead, Group: "g", Key: "u3", TS: 10})
	if !resp.OK || !resp.Found || resp.Value != "once" {
		t.Fatalf("snapshot-only key = %+v", resp)
	}
}

// TestRecoverViaSnapshot exercises the same path through explicit recovery.
func TestRecoverViaSnapshot(t *testing.T) {
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	sim.SetDown("C", true)
	seedLog(t, services, []string{"A", "B"}, "g", 9)
	for _, dc := range []string{"A", "B"} {
		if _, err := services[dc].Compact("g", 9); err != nil {
			t.Fatal(err)
		}
	}
	sim.SetDown("C", false)
	if err := services["C"].Recover(context.Background(), "g"); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := services["C"].LastApplied("g"); got != 9 {
		t.Fatalf("C horizon = %d, want 9", got)
	}
}

// seedRows applies positions from..to at svc, each writing rowsPer fresh
// 100-byte rows named by their position.
func seedRows(t *testing.T, svc *Service, group string, from, to int64, rowsPer int) {
	t.Helper()
	val := strings.Repeat("x", 100)
	for pos := from; pos <= to; pos++ {
		writes := make(map[string]string, rowsPer)
		for i := 0; i < rowsPer; i++ {
			writes[fmt.Sprintf("r%03d-%02d", pos, i)] = val
		}
		if err := svc.ApplyDecided(group, pos, entryBytes(fmt.Sprintf("t%d", pos), pos-1, writes)); err != nil {
			t.Fatalf("apply %s/%d at %s: %v", group, pos, svc.DC(), err)
		}
	}
}

// snapshotPair wires a serving replica A and a laggard C (over store) on one
// simulated network. between, when set, sees every snapshot request before A
// does, counted from 1, and may answer in A's place.
func snapshotPair(t *testing.T, store *kvstore.Store, between func(n int, req network.Message) *network.Message) (a, c *Service) {
	t.Helper()
	sim := network.NewSim(network.NewTopology("A", "C"), network.SimConfig{Seed: 3})
	t.Cleanup(sim.Close)
	requests := 0
	a = NewService("A", kvstore.New(), sim.EndpointAsync("A", func(from string, req network.Message, reply func(network.Message)) {
		if req.Kind == network.KindSnapshot && between != nil {
			requests++
			if resp := between(requests, req); resp != nil {
				reply(*resp)
				return
			}
		}
		a.AsyncHandler()(from, req, reply)
	}), WithServiceTimeout(testPageTimeout))
	c = NewService("C", store, sim.EndpointAsync("C", func(from string, req network.Message, reply func(network.Message)) {
		c.AsyncHandler()(from, req, reply)
	}), WithServiceTimeout(testPageTimeout))
	t.Cleanup(a.Close)
	t.Cleanup(c.Close)
	return a, c
}

// sameImage fails unless c holds group's data rows at h exactly as a does —
// key, version timestamp and contents, row for row — under the same
// watermark, epoch state and handoff records.
func sameImage(t *testing.T, a, c *Service, group string, h int64) {
	t.Helper()
	if got := c.LastApplied(group); got != h {
		t.Fatalf("laggard's watermark = %d, want %d", got, h)
	}
	prefix := "data/" + group + "/"
	want, _, err := a.store.ScanPrefix(prefix, "", 0, h)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c.store.ScanPrefix(prefix, "", 0, h)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("laggard holds %d rows at %d, peer %d; or they differ", len(got), h, len(want))
	}
	if ce, ae := c.log(group).Epoch(), a.log(group).Epoch(); ce != ae {
		t.Fatalf("laggard's epoch state %+v, peer's %+v", ce, ae)
	}
	if cm, am := c.log(group).Fence().Records(), a.log(group).FenceAt(h).Records(); !reflect.DeepEqual(cm, am) {
		t.Fatalf("laggard's handoff records %v, peer's at %d %v", cm, h, am)
	}
}

// TestSnapshotPagesAreOneSnapshot: a transfer of many pages installs the
// image at its one pinned horizon, whatever the serving replica does between
// pages.
func TestSnapshotPagesAreOneSnapshot(t *testing.T) {
	// Positions 1 and 2 give the header something to carry: an epoch claim
	// and a handoff record (between two other groups, so it fences nothing
	// here). 40 positions of 50 rows follow: 234 KB, eight pages.
	const tip = 42
	seed := func(t *testing.T, a *Service) {
		t.Helper()
		for pos, e := range []wal.Entry{
			wal.NewClaim(1, "A"),
			wal.NewHandoff(wal.HandoffPrepare, "x", "y", []string{"x", "y"}),
		} {
			if err := a.ApplyDecided("g", int64(pos+1), wal.Encode(e)); err != nil {
				t.Fatal(err)
			}
		}
		seedRows(t, a, "g", 3, tip, 50)
	}
	// advance commits position tip+1 at a: new versions of the first row in
	// key order (on a page already served) and the last (not served yet).
	advance := func(t *testing.T, a *Service) {
		t.Helper()
		writes := map[string]string{"r003-00": "newer", fmt.Sprintf("r%03d-49", tip): "newer"}
		if err := a.ApplyDecided("g", tip+1, entryBytes("late", tip, writes)); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("commits and a compaction between pages", func(t *testing.T) {
		var a, c *Service
		pages := 0
		a, c = snapshotPair(t, kvstore.New(), func(n int, req network.Message) *network.Message {
			if pages = n; n == 3 {
				advance(t, a)
				// The pin holds the image: a compaction above it clamps to it.
				if got, err := a.Compact("g", tip+1); err != nil || got != tip {
					t.Errorf("compaction above the pinned horizon went to %d (%v), want %d", got, err, tip)
				}
			}
			return nil
		})
		seed(t, a)
		if err := c.installFrom(context.Background(), "A", "g"); err != nil {
			t.Fatal(err)
		}
		if pages < 4 {
			t.Fatalf("the transfer took %d pages; the test wants at least 4", pages)
		}
		sameImage(t, a, c, "g", tip)
		for _, key := range []string{"r003-00", fmt.Sprintf("r%03d-49", tip)} {
			if _, ts, err := c.store.ReadPacked(dataKey("g", key), kvstore.Latest); err != nil || ts > tip {
				t.Fatalf("%s at the laggard: version %d (%v); the version committed mid-transfer leaked", key, ts, err)
			}
		}
		// What the transfer did not carry comes the ordinary way.
		if err := c.CatchUp(context.Background(), "g", tip+1); err != nil {
			t.Fatal(err)
		}
		sameImage(t, a, c, "g", tip+1)
	})

	t.Run("compacted mid-stream restarts at a fresh pin", func(t *testing.T) {
		var a, c *Service
		var horizons []int64 // of each transfer started
		a, c = snapshotPair(t, kvstore.New(), func(n int, req network.Message) *network.Message {
			if !req.Found {
				horizons = append(horizons, a.LastApplied("g"))
			}
			if n == 3 {
				advance(t, a)
				refusal := network.Refuse(network.VerdictCompacted, "")
				return &refusal
			}
			return nil
		})
		seed(t, a)
		if err := c.installFrom(context.Background(), "A", "g"); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(horizons, []int64{tip, tip + 1}) {
			t.Fatalf("transfers started at %v, want a second one at the fresh pin %d", horizons, tip+1)
		}
		sameImage(t, a, c, "g", tip+1)
	})

	t.Run("a pin that compaction passed is refused", func(t *testing.T) {
		a, _ := snapshotPair(t, kvstore.New(), nil)
		seed(t, a)
		if _, err := a.Compact("g", 30); err != nil {
			t.Fatal(err)
		}
		resp := ask(t, a, "C", network.Message{Kind: network.KindSnapshot, Group: "g", TS: 20, Key: "r003-00", Found: true})
		if resp.OK || resp.Verdict != network.VerdictCompacted {
			t.Fatalf("page at 20 below the horizon 30 = %+v", resp)
		}
	})
}

// TestSnapshotCrashBetweenPages: rows first, watermark last. A laggard that
// loses power mid-transfer recovers the watermark it had, over the rows that
// landed — all above it, so none is visible — and a retried transfer
// converges (D3: a recovered watermark never leads its data).
func TestSnapshotCrashBetweenPages(t *testing.T) {
	dir := t.TempDir()
	store, eng, err := disk.Open(dir, disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, c := snapshotPair(t, store, func(n int, _ network.Message) *network.Message {
		if n == 3 {
			eng.Crash() // two pages have landed
		}
		return nil
	})
	seedRows(t, a, "g", 1, 40, 50)
	if err := c.installFrom(context.Background(), "A", "g"); err == nil {
		t.Fatal("the transfer survived the laggard's power loss")
	}

	store2, eng2, err := disk.Open(dir, disk.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	// A fresh pair: the retry's peer is a replica with the same log.
	a2, c2 := snapshotPair(t, store2, nil)
	if got := c2.LastApplied("g"); got != 0 {
		t.Fatalf("recovered watermark = %d, want the old one, 0", got)
	}
	if rows, _, err := store2.ScanPrefix("data/g/", "", 0, kvstore.Latest); err != nil || len(rows) == 0 {
		t.Fatalf("no row of the two landed pages survived (%v)", err)
	}
	seedRows(t, a2, "g", 1, 40, 50)
	if err := c2.installFrom(context.Background(), "A", "g"); err != nil {
		t.Fatal(err)
	}
	sameImage(t, a2, c2, "g", 40)
}
