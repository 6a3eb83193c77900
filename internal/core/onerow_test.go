package core

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// TestOneRowPerPosition: 200 commits through the master leave, at every
// replica, exactly one row per decided position beside the data rows and the
// meta row, nothing under paxos/ — and that one row is the vote the accept
// wrote (the master's unanimous fast round, and the prepared round of its
// first claim): the apply's ballot lets it stand, so the drain wrote no second
// copy.
func TestOneRowPerPosition(t *testing.T) {
	cl, services := newRingClient(t, "A", Config{Seed: 1, Protocol: Master, MasterDC: "A"})
	const commits = 200
	var tip int64
	for i := 0; i < commits; i++ {
		tip = commitWrites(t, cl, "g", map[string]string{fmt.Sprintf("k%d", i%17): fmt.Sprint(i)})
	}
	ctx := context.Background()
	for dc, s := range services {
		if err := s.log("g").WaitApplied(ctx, tip); err != nil { // a commit returns at a majority of applies
			t.Fatal(err)
		}
		data, log := s.countRows(replog.DataPrefix("g")), s.countRows(replog.LogPrefix("g"))
		if int64(log) != tip || s.store.Len() != data+log+1 {
			t.Errorf("%s: %d rows = %d data + %d per-position + 1 meta + %d more, for %d decided positions",
				dc, s.store.Len(), data, log, s.store.Len()-data-log-1, tip)
		}
		if n := s.countRows("paxos/"); n != 0 {
			t.Errorf("%s: %d rows under paxos/", dc, n)
		}
		marked := 0
		for row, err := range s.store.Rows(replog.LogPrefix("g"), "", kvstore.Latest) {
			if err != nil {
				t.Fatal(err)
			}
			if paxos.RowDecided(row.Val) {
				marked++
			}
		}
		if marked != 0 {
			t.Errorf("%s: the drain rewrote %d of %d rows whose fast-path vote already held the entry", dc, marked, log)
		}
		if n := s.Status("g").LogEntries; int64(n) != tip {
			t.Errorf("%s: status reports %d log entries, want %d", dc, n, tip)
		}
	}
}

// TestDecidedRowsAnswerLearners: with the position's row in the decided form
// at all three acceptors, a client running its instance for the position —
// fast round refused, then prepare, accept and apply, under Basic's and CP's
// choice rules — and a service learning it both come back with the decided
// entry, and the rows are as they were.
func TestDecidedRowsAnswerLearners(t *testing.T) {
	decided := wal.NewEntry(wal.Txn{ID: "winner", Origin: "B", Writes: map[string]string{"x": "1"}})
	row := paxos.DecidedRow(string(wal.Encode(decided)))
	for _, proto := range []Protocol{Basic, CP} {
		cl, services := newRingClient(t, "A", Config{Seed: 1, Protocol: proto})
		for _, s := range services {
			if err := s.store.ApplyBatch([]kvstore.BatchWrite{{Key: paxos.StateKey("g", 1), Value: row, Replace: true}}); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		choose, waitAll := cl.chooseBasic, false
		if proto == CP {
			choose, waitAll = cl.chooseCP, true
		}
		own := wal.Txn{ID: "own", Origin: "A", Writes: map[string]string{"y": "2"}}
		if got, err := cl.runInstance(ctx, "g", 1, own, choose, waitAll); err != nil || !got.Contains("winner") || got.Contains("own") {
			t.Fatalf("%v: runInstance = %v %v, want the decided entry", proto, got, err)
		}
		if got, err := services["A"].learn(ctx, "g", 1, true); err != nil || !got.Contains("winner") {
			t.Fatalf("%v: learn = %v %v, want the decided entry", proto, got, err)
		}
		for dc, s := range services {
			if got, _, err := s.store.ReadPacked(paxos.StateKey("g", 1), kvstore.Latest); err != nil || got != row {
				t.Fatalf("%v: %s's decided row was rewritten: %v %v", proto, dc, got.Unpack(), err)
			}
			// The instance's apply reached the log, which takes the planted
			// row for what it is.
			if e, ok := s.DecidedEntry("g", 1); !ok || !e.Contains("winner") {
				t.Fatalf("%v: %s's log reads %v %v at the position", proto, dc, e, ok)
			}
		}
	}
}

// TestChooseCPAdoptsDecidedVote: one vote at DecidedBallot settles the value,
// however few votes it is — the count rule alone would read 1 of 3 as "no
// value can have won" and combine.
func TestChooseCPAdoptsDecidedVote(t *testing.T) {
	c := newTestClient(Config{Protocol: CP})
	own := wal.NewEntry(mkTxn("own", nil, map[string]string{"a": "1"}))
	decided := wal.NewEntry(mkTxn("winner", nil, map[string]string{"b": "1"}))
	prep := paxos.PrepareOutcome{D: 3, Acks: 3, Votes: []paxos.Vote{
		vote("A", paxos.DecidedBallot, decided), nullVote("B"), nullVote("C"),
	}}
	if got := c.chooseCP(prep, own); string(got) != string(wal.Encode(decided)) {
		e, _ := wal.Decode(got)
		t.Fatalf("chooseCP = %s, want the decided entry", e)
	}
}

// TestStatusDoesNotDecodeTheLog: counting a group's log entries walks keys; at
// the parent it decoded and deep-copied every entry.
func TestStatusDoesNotDecodeTheLog(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A"})
	s := services["A"]
	const entries = 5000
	for pos := int64(1); pos <= entries; pos++ {
		if _, err := s.log("g").Append(pos, entryBytes(fmt.Sprintf("t%d", pos), pos-1, map[string]string{"k": "v"})); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.log("g").WaitApplied(context.Background(), entries); err != nil {
		t.Fatal(err)
	}
	if n := s.Status("g").LogEntries; n != entries {
		t.Fatalf("LogEntries = %d, want %d", n, entries)
	}
	if allocs := testing.AllocsPerRun(3, func() { s.Status("g") }); allocs >= entries {
		t.Fatalf("Status allocates %.0f objects over a %d-entry log, want fewer than one per entry", allocs, entries)
	}
}

// TestInstallDropsClaimsAndAnswersCompacted: a laggard holding decided rows at
// 1…4, votes at 5…9 and leader claims along the way installs a snapshot at 20.
// No per-position row at or below 20 is left — log or claim — and a fetch for
// a position it once held a vote at is answered "compacted", not served.
func TestInstallDropsClaimsAndAnswersCompacted(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A", "C"})
	a, c := services["A"], services["C"]
	seedLog(t, services, []string{"A"}, "g", 20)
	seedLog(t, services, []string{"C"}, "g", 4)
	acc := paxos.NewAcceptor(c.store)
	for pos := int64(1); pos <= 9; pos++ {
		if pos > 4 {
			if res, err := acc.Accept("g", pos, paxos.FastBallot, entryBytes("lost", pos-1, nil)); err != nil || !res.OK {
				t.Fatalf("accept %d: %+v %v", pos, res, err)
			}
		}
		if err := c.store.CheckAndWrite(claimKey("g", pos), "owner", "", kvstore.PackAttrs("owner", "tok")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.Compact("g", 20); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	if got := c.LastApplied("g"); got != 20 {
		t.Fatalf("laggard's watermark = %d, want the installed 20", got)
	}
	for _, prefix := range []string{replog.LogPrefix("g"), "claim/g/"} {
		for row, err := range c.store.Rows(prefix, "", kvstore.Latest) {
			if err != nil {
				t.Fatal(err)
			}
			if pos, _ := strconv.ParseInt(row.Key[len(prefix):], 10, 64); pos <= 20 {
				t.Errorf("row %s survived the install", row.Key)
			}
		}
	}
	if snap := c.LogSnapshot("g"); len(snap) != 0 {
		t.Errorf("LogSnapshot = %v, want nothing at or below the horizon", snap)
	}
	resp := ask(t, c, "A", network.Message{Kind: network.KindFetchLog, Group: "g", Pos: 7})
	if resp.OK || resp.Verdict != network.VerdictCompacted || resp.TS != 20 {
		t.Fatalf("fetch of 7 = %+v, want compacted at 20", resp)
	}
	if n := c.Status("g").LogEntries; n != 0 {
		t.Fatalf("status reports %d log entries, want none", n)
	}
}
