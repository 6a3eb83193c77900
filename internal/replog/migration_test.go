package replog

import (
	"fmt"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/placement"
	"paxoscp/internal/wal"
)

// movingKey finds a key that the 2→3 growth moves from `from` into the added
// group g2. The placements are the same rendezvous hash every replica and the
// coordinator use, so the key is moving by definition, not by construction.
func movingKey(t *testing.T, from string) (key string, groups []string) {
	t.Helper()
	old := placement.NewN(2)
	neu := old.Grow("g2")
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("mig-key-%d", i)
		if old.GroupFor(k) == from && neu.GroupFor(k) == "g2" {
			return k, neu.Groups()
		}
	}
	t.Fatalf("no key moving %s->g2 in 10000 candidates", from)
	return "", nil
}

// stayingKey finds a key that stays in `from` across the 2→3 growth.
func stayingKey(t *testing.T, from string) string {
	t.Helper()
	old := placement.NewN(2)
	neu := old.Grow("g2")
	for i := 0; i < 10000; i++ {
		k := fmt.Sprintf("stay-key-%d", i)
		if old.GroupFor(k) == from && neu.GroupFor(k) == from {
			return k
		}
	}
	t.Fatalf("no key staying in %s in 10000 candidates", from)
	return ""
}

func appendApplied(t *testing.T, l *Log, pos int64, b []byte) {
	t.Helper()
	if _, err := l.Append(pos, b); err != nil {
		t.Fatalf("append %d: %v", pos, err)
	}
	if err := l.WaitApplied(waitCtx(t), pos); err != nil {
		t.Fatalf("wait %d: %v", pos, err)
	}
}

func readData(t *testing.T, store *kvstore.Store, group, key string, pos int64) (string, bool) {
	t.Helper()
	v, _, err := store.Read(DataKey(group, key), pos)
	if err != nil {
		return "", false
	}
	return v["v"], true
}

// TestHandoffOutFencesLaterWrites: M1 — once a HandoffOut applies, a later
// transaction writing a key of the departed range is void at apply time, with
// the destination recorded per transaction, while writes to keys that stayed
// keep applying normally.
func TestHandoffOutFencesLaterWrites(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g0")
	t.Cleanup(l.Close)

	moved, groups := movingKey(t, "g0")
	stayed := stayingKey(t, "g0")

	appendApplied(t, l, 1, testEntry("t1", 0, map[string]string{moved: "before"}))
	appendApplied(t, l, 2, wal.Encode(wal.NewHandoff(wal.HandoffOut, "g0", "g2", groups)))
	appendApplied(t, l, 3, testEntry("t3", 2, map[string]string{moved: "after"}))
	appendApplied(t, l, 4, testEntry("t4", 2, map[string]string{stayed: "ok"}))

	if to, pos, ok := l.Fence().Moved(moved); !ok || to != "g2" || pos != 2 {
		t.Fatalf("Moved(%q) = (%s, %d, %v), want (g2, 2, true)", moved, to, pos, ok)
	}
	if _, _, ok := l.Fence().Moved(stayed); ok {
		t.Fatalf("Moved claims the staying key %q departed", stayed)
	}
	if to, ok := l.MovedTxn(3, "t3"); !ok || to != "g2" {
		t.Fatalf("MovedTxn(3, t3) = (%s, %v), want (g2, true)", to, ok)
	}
	if _, ok := l.MovedTxn(4, "t4"); ok {
		t.Fatal("MovedTxn flags the staying-key transaction at pos 4")
	}
	// The voided write never landed: the frozen pre-handoff version survives.
	if v, ok := readData(t, store, "g0", moved, 10); !ok || v != "before" {
		t.Fatalf("departed key = (%q, %v) after fenced write, want frozen \"before\"", v, ok)
	}
	if v, ok := readData(t, store, "g0", stayed, 10); !ok || v != "ok" {
		t.Fatalf("staying key = (%q, %v), want \"ok\"", v, ok)
	}
}

// TestHandoffPrepareFencesUntilIn: M2 — between HandoffPrepare and HandoffIn
// the destination group voids ordinary transactions touching the inbound
// range (verdict "migrating", no destination hint) but admits backfill
// transactions; HandoffIn opens the range for normal traffic.
func TestHandoffPrepareFencesUntilIn(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g2")
	t.Cleanup(l.Close)

	moved, groups := movingKey(t, "g0")

	appendApplied(t, l, 1, wal.Encode(wal.NewHandoff(wal.HandoffPrepare, "g0", "g2", groups)))
	if !l.Fence().Pending(moved) {
		t.Fatalf("Pending(%q) = false after prepare", moved)
	}
	appendApplied(t, l, 2, testEntry("early", 1, map[string]string{moved: "sneak"}))
	if to, ok := l.MovedTxn(2, "early"); !ok || to != "" {
		t.Fatalf("MovedTxn(2, early) = (%q, %v), want (\"\", true): migrating verdict", to, ok)
	}
	bf := wal.NewEntry(wal.Txn{ID: "bf", Origin: "mig", ReadPos: 1, Backfill: true,
		Writes: map[string]string{moved: "copied"}})
	appendApplied(t, l, 3, wal.Encode(bf))
	if _, ok := l.MovedTxn(3, "bf"); ok {
		t.Fatal("backfill transaction was fenced by M2")
	}
	if v, ok := readData(t, store, "g2", moved, 10); !ok || v != "copied" {
		t.Fatalf("backfill write = (%q, %v), want \"copied\"", v, ok)
	}
	appendApplied(t, l, 4, wal.Encode(wal.NewHandoff(wal.HandoffIn, "g0", "g2", groups)))
	if l.Fence().Pending(moved) {
		t.Fatalf("Pending(%q) still true after HandoffIn", moved)
	}
	appendApplied(t, l, 5, testEntry("late", 4, map[string]string{moved: "served"}))
	if _, ok := l.MovedTxn(5, "late"); ok {
		t.Fatal("post-HandoffIn transaction was fenced")
	}
	if v, ok := readData(t, store, "g2", moved, 10); !ok || v != "served" {
		t.Fatalf("post-open write = (%q, %v), want \"served\"", v, ok)
	}
}

// TestTombstoneMarksRangeForGC: HandoffTombstone on the source marks the
// departed range scavengeable without changing the M1 fence.
func TestTombstoneMarksRangeForGC(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g0")
	t.Cleanup(l.Close)

	moved, groups := movingKey(t, "g0")
	stayed := stayingKey(t, "g0")

	appendApplied(t, l, 1, wal.Encode(wal.NewHandoff(wal.HandoffOut, "g0", "g2", groups)))
	if l.Fence().Tombstoned(moved) {
		t.Fatal("range tombstoned before HandoffTombstone")
	}
	appendApplied(t, l, 2, wal.Encode(wal.NewHandoff(wal.HandoffTombstone, "g0", "g2", groups)))
	if !l.Fence().Tombstoned(moved) {
		t.Fatal("range not tombstoned after HandoffTombstone")
	}
	if l.Fence().Tombstoned(stayed) {
		t.Fatal("staying key tombstoned")
	}
	if _, _, ok := l.Fence().Moved(moved); !ok {
		t.Fatal("M1 fence dropped by tombstone")
	}
}

// TestMigrationStateSurvivesRestart: the fences rebuild from the meta row on
// Open — a replica restarted after applying a HandoffOut (log rows possibly
// compacted away) still voids writes into the departed range.
func TestMigrationStateSurvivesRestart(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g0")

	moved, groups := movingKey(t, "g0")
	appendApplied(t, l, 1, wal.Encode(wal.NewHandoff(wal.HandoffOut, "g0", "g2", groups)))
	l.Close()

	l2 := Open(store, "g0")
	t.Cleanup(l2.Close)
	if to, pos, ok := l2.Fence().Moved(moved); !ok || to != "g2" || pos != 1 {
		t.Fatalf("after restart Moved(%q) = (%s, %d, %v), want (g2, 1, true)", moved, to, pos, ok)
	}
	appendApplied(t, l2, 2, testEntry("t2", 1, map[string]string{moved: "late"}))
	if to, ok := l2.MovedTxn(2, "t2"); !ok || to != "g2" {
		t.Fatalf("restarted log did not fence: MovedTxn = (%s, %v)", to, ok)
	}
}

// TestInstallSnapshotCarriesMigrations: a replica restored from a snapshot
// whose horizon is past the handoff adopts the records; a shorter (stale)
// record list never clobbers a longer local one.
func TestInstallSnapshotCarriesMigrations(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g0")
	t.Cleanup(l.Close)

	moved, groups := movingKey(t, "g0")
	recs := MigrationState{Records: []HandoffRecord{{
		Phase: uint8(wal.HandoffOut), From: "g0", To: "g2", Groups: groups,
		Version: int64(len(groups)), Pos: 3,
	}}}
	if err := l.InstallSnapshot(5, EpochState{}, recs); err != nil {
		t.Fatal(err)
	}
	if to, _, ok := l.Fence().Moved(moved); !ok || to != "g2" {
		t.Fatalf("Moved after snapshot install = (%s, %v), want (g2, true)", to, ok)
	}
	// A stale snapshot (empty record list) must not clear the fence.
	if err := l.InstallSnapshot(6, EpochState{}, MigrationState{}); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := l.Fence().Moved(moved); !ok {
		t.Fatal("stale snapshot cleared the migration fence")
	}
}

// TestEpochFencedHandoffIsVoid: F2 applies to handoff entries too — a handoff
// stamped with a superseded epoch voids without touching migration state, so
// a deposed coordinator's cutover cannot land after a failover.
func TestEpochFencedHandoffIsVoid(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g0")
	t.Cleanup(l.Close)

	moved, groups := movingKey(t, "g0")

	appendApplied(t, l, 1, wal.Encode(wal.NewClaim(3, "B")))
	stale := wal.NewHandoff(wal.HandoffOut, "g0", "g2", groups)
	stale.Epoch = 2 // below the prevailing epoch: fenced
	appendApplied(t, l, 2, wal.Encode(stale))

	if !l.Voided(2) {
		t.Fatal("stale-epoch handoff not voided")
	}
	if _, _, ok := l.Fence().Moved(moved); ok {
		t.Fatal("fenced handoff mutated migration state")
	}
	if got := l.Fence().Records(); len(got) != 0 {
		t.Fatalf("fenced handoff recorded: %v", got)
	}

	// The same handoff at the prevailing epoch applies.
	fresh := wal.NewHandoff(wal.HandoffOut, "g0", "g2", groups)
	fresh.Epoch = 3
	appendApplied(t, l, 3, wal.Encode(fresh))
	if to, _, ok := l.Fence().Moved(moved); !ok || to != "g2" {
		t.Fatalf("current-epoch handoff did not apply: (%s, %v)", to, ok)
	}
}

// TestFenceAtFiltersRecordsByHorizon: snapshot building must exclude records
// above the horizon — the restored replica replays those positions itself.
func TestFenceAtFiltersRecordsByHorizon(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g0")
	t.Cleanup(l.Close)

	_, groups := movingKey(t, "g0")
	appendApplied(t, l, 1, wal.Encode(wal.NewHandoff(wal.HandoffOut, "g0", "g2", groups)))
	appendApplied(t, l, 2, wal.Encode(wal.NewHandoff(wal.HandoffTombstone, "g0", "g2", groups)))

	if got := l.FenceAt(1).Records(); len(got) != 1 || got[0].Pos != 1 {
		t.Fatalf("FenceAt(1).Records() = %v, want just the pos-1 record", got)
	}
	if got := l.FenceAt(0).Records(); len(got) != 0 {
		t.Fatalf("FenceAt(0).Records() = %v, want empty", got)
	}
	if got := l.FenceAt(2).Records(); len(got) != 2 {
		t.Fatalf("FenceAt(2).Records() = %v, want both records", got)
	}
}

// TestFenceAtIsPositionAware: the fence derived at a position below a
// handoff ignores it (the scan serves the range from the source), while the
// fence at or above it refuses the departed keys and names the destination.
func TestFenceAtIsPositionAware(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g0")
	t.Cleanup(l.Close)

	moved, groups := movingKey(t, "g0")
	stayed := stayingKey(t, "g0")

	appendApplied(t, l, 1, testEntry("t1", 0, map[string]string{moved: "x", stayed: "y"}))
	appendApplied(t, l, 2, wal.Encode(wal.NewHandoff(wal.HandoffOut, "g0", "g2", groups)))

	if _, _, ok := l.FenceAt(1).Moved(moved); ok {
		t.Fatalf("fence at 1 refuses %q, but the cutover applied at 2", moved)
	}
	post := l.FenceAt(2)
	if to, pos, ok := post.Moved(moved); !ok || to != "g2" || pos != 2 {
		t.Fatalf("Moved(%q) at 2 = (%s, %d, %v), want (g2, 2, true)", moved, to, pos, ok)
	}
	if _, _, ok := post.Moved(stayed); ok {
		t.Fatalf("staying key %q fenced", stayed)
	}
}

// TestFenceInboundSide: on the destination, a key is pending between
// Prepare and In, and marked moved-in from In on — each evaluated at the
// fence position, not the watermark.
func TestFenceInboundSide(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g2")
	t.Cleanup(l.Close)

	moved, groups := movingKey(t, "g0")

	appendApplied(t, l, 1, wal.Encode(wal.NewHandoff(wal.HandoffPrepare, "g0", "g2", groups)))
	appendApplied(t, l, 2, wal.Encode(wal.NewHandoff(wal.HandoffIn, "g0", "g2", groups)))

	mid := l.FenceAt(1)
	if !mid.Pending(moved) || !mid.HasPending() {
		t.Fatalf("key %q not pending at 1 (between Prepare and In)", moved)
	}
	if mid.MovedIn(moved) {
		t.Fatalf("key %q moved-in at 1, before HandoffIn applied", moved)
	}

	open := l.FenceAt(2)
	if open.Pending(moved) || open.HasPending() {
		t.Fatalf("key %q still pending at 2, after HandoffIn", moved)
	}
	if !open.MovedIn(moved) {
		t.Fatalf("key %q not marked moved-in at 2", moved)
	}
}

// TestFenceTombstoneGatesScavenge: the horizon-aware tombstone check —
// a fence below the tombstone position must not clear the range for
// wholesale scavenge.
func TestFenceTombstoneGatesScavenge(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g0")
	t.Cleanup(l.Close)

	moved, groups := movingKey(t, "g0")
	appendApplied(t, l, 1, wal.Encode(wal.NewHandoff(wal.HandoffOut, "g0", "g2", groups)))
	appendApplied(t, l, 2, wal.Encode(wal.NewHandoff(wal.HandoffTombstone, "g0", "g2", groups)))

	if l.FenceAt(1).Tombstoned(moved) {
		t.Fatal("fence at 1 tombstones a range whose tombstone applied at 2")
	}
	if !l.FenceAt(2).Tombstoned(moved) {
		t.Fatal("fence at 2 misses the applied tombstone")
	}
}

// TestFenceAtNewestRecordReusesState: a fence at or above the newest handoff
// record is the live state itself — no MoveSet is recompiled, nothing is
// allocated — so every scan page of a migrated group costs what a
// never-migrated group's does. Below the newest record it is rebuilt.
func TestFenceAtNewestRecordReusesState(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g0")
	t.Cleanup(l.Close)

	moved, groups := movingKey(t, "g0")
	appendApplied(t, l, 1, wal.Encode(wal.NewHandoff(wal.HandoffOut, "g0", "g2", groups)))
	appendApplied(t, l, 2, wal.Encode(wal.NewHandoff(wal.HandoffTombstone, "g0", "g2", groups)))
	appendApplied(t, l, 3, testEntry("t3", 2, map[string]string{"other": "v"}))

	for _, ts := range []int64{2, 3} {
		var f Fence
		if allocs := testing.AllocsPerRun(100, func() { f = l.FenceAt(ts) }); allocs != 0 {
			t.Errorf("FenceAt(%d) allocates %.0f times, want 0", ts, allocs)
		}
		if !f.Tombstoned(moved) {
			t.Errorf("FenceAt(%d) misses the tombstone", ts)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { l.FenceAt(1) }); allocs == 0 {
		t.Error("FenceAt(1) allocates nothing: it cannot have rebuilt the state below the tombstone")
	}
}
