package replog

import (
	"fmt"
	"sync"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/paxos"
)

// posEntry is the entry these tests decide at pos: transaction t<pos> writing
// x = <pos>.
func posEntry(pos int64) []byte {
	return testEntry(fmt.Sprintf("t%d", pos), pos-1, map[string]string{"x": fmt.Sprint(pos)})
}

// TestDrainWritesNoSecondCopy: the vote is the entry. A position whose stored
// vote is for the decided bytes, under a promise at or above a ballot they
// were chosen at, costs the drain no record at all; any other position costs
// exactly one OpReplace, which leaves the row in the decided form — final for
// the acceptor.
func TestDrainWritesNoSecondCopy(t *testing.T) {
	eng := &recEngine{}
	store := kvstore.New()
	store.AttachEngine(eng)
	l := Open(store, "g")
	defer l.Close()
	acc := paxos.NewAcceptor(store)
	other := testEntry("OTHER", 0, map[string]string{"x": "other"})
	vote := func(pos, ballot int64, value []byte) {
		t.Helper()
		if ballot != paxos.FastBallot {
			if res, err := acc.Prepare("g", pos, ballot); err != nil || !res.OK {
				t.Fatalf("prepare %d@%d: %+v %v", pos, ballot, res, err)
			}
		}
		if res, err := acc.Accept("g", pos, ballot, value); err != nil || !res.OK {
			t.Fatalf("accept %d@%d: %+v %v", pos, ballot, res, err)
		}
	}
	low, high := paxos.Ballot(1, 1), paxos.Ballot(2, 1)
	replace := []kvstore.Op{kvstore.OpReplace}
	for _, tc := range []struct {
		name     string
		vote     func(pos int64)
		chosenAt int64
		want     []kvstore.Op // the drain's records for the position's row, after the acceptor's
	}{
		{"fast vote, chosen on the fast path", func(pos int64) { vote(pos, paxos.FastBallot, posEntry(pos)) }, paxos.FastBallot, nil},
		{"vote at the choosing ballot", func(pos int64) { vote(pos, low, posEntry(pos)) }, low, nil},
		{"no vote here", func(int64) {}, paxos.FastBallot, replace},
		{"vote for other bytes", func(pos int64) { vote(pos, paxos.FastBallot, other) }, low, replace},
		{"vote below the choosing ballot", func(pos int64) { vote(pos, low, posEntry(pos)) }, high, replace},
		{"ballot unknown", func(pos int64) { vote(pos, paxos.FastBallot, posEntry(pos)) }, paxos.DecidedBallot, replace},
	} {
		pos := l.Applied() + 1
		key := paxos.StateKey("g", pos)
		tc.vote(pos)
		voted := len(eng.opsOn(key))
		if _, err := l.AppendChosen(pos, tc.chosenAt, posEntry(pos)); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if err := l.WaitApplied(waitCtx(t), pos); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got := eng.opsOn(key)[voted:]; fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s: the drain logged %v for the row, want %v", tc.name, got, tc.want)
		}
		if raw, ok := l.EntryBytes(pos); !ok || string(raw) != string(posEntry(pos)) {
			t.Errorf("%s: EntryBytes = %q %v, want the decided bytes", tc.name, raw, ok)
		}
		row, _, _ := store.ReadPacked(key, kvstore.Latest)
		if paxos.RowDecided(row) != (tc.want != nil) {
			t.Errorf("%s: row marked decided = %t, want %t", tc.name, paxos.RowDecided(row), tc.want != nil)
		}
		// Decided either way: the old bytes are refused now, by the mark or by
		// the vote already cast at that ballot.
		if res, err := acc.Accept("g", pos, paxos.FastBallot, other); err != nil || res.OK {
			t.Errorf("%s: a late accept of other bytes = %+v %v, want refused", tc.name, res, err)
		}
	}

	// Above a gap no watermark covers the vote, so the position needs its mark
	// — once: the pass that applies it later writes nothing more for it.
	gap := l.Applied() + 1
	pos := gap + 1
	vote(pos, paxos.FastBallot, posEntry(pos))
	voted := len(eng.opsOn(paxos.StateKey("g", pos)))
	if _, err := l.AppendChosen(pos, paxos.FastBallot, posEntry(pos)); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitLogged(waitCtx(t), pos); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(gap, posEntry(gap)); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), pos); err != nil {
		t.Fatal(err)
	}
	if got := eng.opsOn(paxos.StateKey("g", pos))[voted:]; fmt.Sprint(got) != fmt.Sprint(replace) {
		t.Errorf("a voted entry above a gap: the drains logged %v for the row, want one %v", got, replace)
	}
}

// TestAcceptorRacesDrain hammers one position's row from both sides: acceptor
// goroutines promising and voting other values at rising ballots while the
// position is decided and drained. Whatever the interleaving, the row ends in
// the decided form holding the decided bytes, and no later accept moves it.
func TestAcceptorRacesDrain(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g")
	defer l.Close()
	acc := paxos.NewAcceptor(store)
	const positions, proposers = 100, 3
	for pos := int64(1); pos <= positions; pos++ {
		decided := posEntry(pos)
		var wg sync.WaitGroup
		for id := 1; id <= proposers; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				value := []byte(fmt.Sprintf("straggler-%d", id))
				for round := int64(1); round <= 4; round++ {
					b := paxos.Ballot(round, id)
					if _, err := acc.Prepare("g", pos, b); err != nil {
						t.Error(err)
					}
					if _, err := acc.Accept("g", pos, b, value); err != nil {
						t.Error(err)
					}
				}
			}(id)
		}
		// Chosen elsewhere, at a ballot above every straggler's: no vote here
		// can stand, whichever the drain finds.
		if _, err := l.AppendChosen(pos, paxos.Ballot(9, 0), decided); err != nil {
			t.Fatal(err)
		}
		if err := l.WaitApplied(waitCtx(t), pos); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		row, _, err := store.ReadPacked(paxos.StateKey("g", pos), kvstore.Latest)
		if err != nil || !paxos.RowDecided(row) || paxos.RowEntry(row) != string(decided) {
			t.Fatalf("position %d: row = %v %v, want the decided form of the decided bytes", pos, row.Unpack(), err)
		}
		if raw, ok := l.EntryBytes(pos); !ok || string(raw) != string(decided) {
			t.Fatalf("position %d: EntryBytes = %q %v", pos, raw, ok)
		}
	}
}

// TestInstallSnapshotDropsRowsItJumpsOver: a laggard holding decided rows at
// 1…4 and votes at 5…9 installs a snapshot at 20. Nothing compacts at or
// below an installed horizon again, and a vote left under the new watermark
// would read as an entry — so every row at or below 20 goes, and a vote a
// straggling accept leaves there afterwards is still no entry.
func TestInstallSnapshotDropsRowsItJumpsOver(t *testing.T) {
	l, store := openLog(t)
	acc := paxos.NewAcceptor(store)
	for pos := int64(1); pos <= 9; pos++ {
		if res, err := acc.Accept("g", pos, paxos.FastBallot, posEntry(pos)); err != nil || !res.OK {
			t.Fatalf("accept %d: %+v %v", pos, res, err)
		}
		if pos <= 4 {
			if _, err := l.AppendChosen(pos, paxos.FastBallot, posEntry(pos)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.WaitApplied(waitCtx(t), 4); err != nil {
		t.Fatal(err)
	}
	if _, ok := l.Entry(3); !ok { // into the decoded cache
		t.Fatal("entry 3 unreadable before the install")
	}
	if err := l.InstallSnapshot(20, EpochState{}, MigrationState{}); err != nil {
		t.Fatal(err)
	}
	nothingThere := func(when string) {
		t.Helper()
		if snap := l.Snapshot(); len(snap) != 0 || l.Count() != 0 {
			t.Fatalf("%s: Snapshot = %v, Count = %d, want an empty log", when, snap, l.Count())
		}
		for pos := int64(1); pos <= 20; pos++ {
			if _, ok := l.EntryBytes(pos); ok || l.Has(pos) {
				t.Fatalf("%s: position %d still reads as a decided entry", when, pos)
			}
		}
	}
	scanLogRows(store, "g", func(pos int64, row kvstore.Packed) {
		t.Errorf("row %d survived the install: %v", pos, row.Unpack())
	})
	nothingThere("after the install")

	// Stragglers: accepts that were in flight when the replica jumped.
	for _, pos := range []int64{7, 20} {
		if res, err := acc.Accept("g", pos, paxos.FastBallot, []byte("straggler")); err != nil || !res.OK {
			t.Fatalf("straggling accept %d: %+v %v", pos, res, err)
		}
	}
	nothingThere("after straggling accepts")
	// The log goes on above the horizon.
	if _, err := l.Append(21, posEntry(21)); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 21); err != nil {
		t.Fatal(err)
	}
	if n := l.Count(); n != 1 {
		t.Fatalf("Count = %d, want the one entry above the horizon", n)
	}
}

// TestCompactKeepsHorizonInForceBeforeDeleting: after a compaction a vote a
// straggling accept leaves below the horizon is no entry, and the entry at
// the horizon — kept, in the decided form — is not the acceptor's to rewrite.
func TestCompactKeepsHorizonInForceBeforeDeleting(t *testing.T) {
	l, store := openLog(t)
	acc := paxos.NewAcceptor(store)
	for pos := int64(1); pos <= 6; pos++ {
		acc.Accept("g", pos, paxos.FastBallot, posEntry(pos))
		if _, err := l.AppendChosen(pos, paxos.FastBallot, posEntry(pos)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitApplied(waitCtx(t), 6); err != nil {
		t.Fatal(err)
	}
	if h, err := l.Compact(4, nil); err != nil || h != 4 {
		t.Fatalf("Compact = %d %v", h, err)
	}
	if res, err := acc.Accept("g", 2, paxos.FastBallot, []byte("straggler")); err != nil || !res.OK {
		t.Fatalf("straggling accept below the horizon: %+v %v", res, err)
	}
	if res, err := acc.Accept("g", 4, paxos.Ballot(1, 1), []byte("straggler")); err != nil || res.OK {
		t.Fatalf("accept of other bytes at the horizon: %+v %v, want refused", res, err)
	}
	if l.Has(2) {
		t.Fatal("a straggler's vote below the horizon reads as a decided entry")
	}
	if raw, ok := l.EntryBytes(4); !ok || string(raw) != string(posEntry(4)) {
		t.Fatalf("entry at the horizon = %q %v", raw, ok)
	}
	if n := l.Count(); n != 3 {
		t.Fatalf("Count = %d, want entries 4, 5, 6", n)
	}
}
