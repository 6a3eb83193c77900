package core

import (
	"fmt"
	"slices"
	"testing"

	"paxoscp/internal/network"
	"paxoscp/internal/placement"
	"paxoscp/internal/wal"
)

// TestFenceVerdictsAtTheService: the verdicts the migration fence drives, at
// the service. Every replica has applied, in group g0, a write of the moving
// key m at 1 and the HandoffOut g0→g1 at 2; in group g1, a write of m at 1
// and the HandoffPrepare g0→g1 at 2. A read of a moved key is refused at or
// above the Out position and served below it. A read of a pending key is
// refused at any position, because that rule asks the fence at the
// watermark, while a scan page asks the fence at its pin and serves the row
// below the prepare: the one deliberate asymmetry between the two. A submit
// that writes a moved or pending key is refused before it is placed — it is
// in no log — and a backfill into the pending range is admitted.
func TestFenceVerdictsAtTheService(t *testing.T) {
	groups := []string{"g0", "g1"}
	set := placement.NewMoveSet(groups, "g0", "g1")
	var m, stay string
	for i := 0; m == "" || stay == ""; i++ {
		if k := fmt.Sprintf("k%d", i); set.Moves(k) {
			m = k
		} else {
			stay = k
		}
	}
	services, _ := newServiceRing(t, 3, []string{"A", "B", "C"})
	for _, s := range services {
		for _, e := range []struct {
			group string
			pos   int64
			entry []byte
		}{
			{"g0", 1, entryBytes("seed0", 0, map[string]string{m: "old", stay: "s"})},
			{"g0", 2, wal.Encode(wal.NewHandoff(wal.HandoffOut, "g0", "g1", groups))},
			{"g1", 1, entryBytes("seed1", 0, map[string]string{m: "early"})},
			{"g1", 2, wal.Encode(wal.NewHandoff(wal.HandoffPrepare, "g0", "g1", groups))},
		} {
			if err := s.ApplyDecided(e.group, e.pos, e.entry); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit := func(group string, backfill bool, key string) network.Message {
		txn := wal.Txn{ID: fmt.Sprintf("sub-%s-%s-%t", group, key, backfill), Origin: "T", ReadPos: 2, Backfill: backfill, Writes: map[string]string{key: "new"}}
		return network.Message{Kind: network.KindSubmit, Group: group, Payload: wal.Encode(wal.NewEntry(txn))}
	}
	moved := func(keys ...string) network.Message {
		return network.Message{Verdict: network.VerdictMoved, Value: "g1", Keys: keys}
	}
	migrating := network.Message{Verdict: network.VerdictMigrating}
	for _, tc := range []struct {
		name string
		req  network.Message
		want network.Message // OK, Verdict, Value, Keys and Combined are compared
	}{
		{"read of a moved key at the Out position", network.Message{Kind: network.KindRead, Group: "g0", Key: m, TS: 2}, moved(m)},
		{"read of a moved key below the Out position", network.Message{Kind: network.KindRead, Group: "g0", Key: m, TS: 1},
			network.Message{OK: true, Value: "old"}},
		{"readmulti names only the moved keys", network.Message{Kind: network.KindReadMulti, Group: "g0", Keys: []string{stay, m}, TS: 2}, moved(m)},
		{"read of a pending key at the prepare", network.Message{Kind: network.KindRead, Group: "g1", Key: m, TS: 2}, migrating},
		{"read of a pending key below the prepare", network.Message{Kind: network.KindRead, Group: "g1", Key: m, TS: 1}, migrating},
		{"scan page pinned below the prepare", network.Message{Kind: network.KindScan, Group: "g1", TS: 1},
			network.Message{OK: true, Keys: []string{m}}},
		{"scan page pinned at the prepare", network.Message{Kind: network.KindScan, Group: "g1", TS: 2},
			network.Message{OK: true, Combined: true}},
		{"submit writing a moved key", submit("g0", false, m), moved()},
		{"submit writing a staying key", submit("g0", false, stay), network.Message{OK: true}},
		{"submit writing a pending key", submit("g1", false, m), migrating},
		{"backfill into the pending range", submit("g1", true, m), network.Message{OK: true}},
	} {
		resp, w := ask(t, services["A"], "T", tc.req), tc.want
		if resp.OK != w.OK || resp.Verdict != w.Verdict || resp.Value != w.Value ||
			!slices.Equal(resp.Keys, w.Keys) || resp.Combined != w.Combined {
			t.Errorf("%s: %+v, want OK=%t verdict %q value %q keys %v combined %t",
				tc.name, resp, w.OK, w.Verdict, w.Value, w.Keys, w.Combined)
		}
	}
	for _, g := range groups {
		for pos, e := range services["A"].LogSnapshot(g) {
			for _, txn := range e.Txns {
				if txn.Writes[m] == "new" && !txn.Backfill {
					t.Errorf("refused submit %s was placed at %s/%d", txn.ID, g, pos)
				}
			}
		}
	}
}
