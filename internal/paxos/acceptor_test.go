package paxos

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"paxoscp/internal/kvstore"
)

func newAcceptor() *Acceptor { return NewAcceptor(kvstore.New()) }

func TestPrepareFreshPositionGrantsAndReportsNullVote(t *testing.T) {
	a := newAcceptor()
	res, err := a.Prepare("g", 1, Ballot(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Promised != Ballot(1, 7) {
		t.Fatalf("res = %+v", res)
	}
	if res.VoteBallot != NilBallot || res.VoteValue != nil {
		t.Fatalf("fresh position must report null vote: %+v", res)
	}
}

func TestPrepareLowerBallotRefused(t *testing.T) {
	a := newAcceptor()
	high := Ballot(5, 1)
	if _, err := a.Prepare("g", 1, high); err != nil {
		t.Fatal(err)
	}
	res, err := a.Prepare("g", 1, Ballot(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("lower ballot granted")
	}
	if res.Promised != high {
		t.Fatalf("refusal must report existing promise %d, got %d", high, res.Promised)
	}
	// Equal ballot is also refused (promise is strict).
	res, _ = a.Prepare("g", 1, high)
	if res.OK {
		t.Fatal("equal ballot granted")
	}
}

func TestAcceptRequiresMatchingPromise(t *testing.T) {
	a := newAcceptor()
	b := Ballot(1, 3)
	if _, err := a.Prepare("g", 9, b); err != nil {
		t.Fatal(err)
	}
	// Wrong ballot: refused.
	res, err := a.Accept("g", 9, Ballot(1, 4), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if res.OK {
		t.Fatal("accept with non-promised ballot succeeded")
	}
	if res.Promised != b {
		t.Fatalf("refusal promise = %d, want %d", res.Promised, b)
	}
	// Matching ballot: vote cast.
	res, err = a.Accept("g", 9, b, []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("accept with matching ballot refused")
	}
	vb, vv, err := a.Vote("g", 9)
	if err != nil || vb != b || string(vv) != "v" {
		t.Fatalf("Vote = (%d,%q,%v)", vb, vv, err)
	}
}

func TestPrepareAfterVoteReturnsVote(t *testing.T) {
	a := newAcceptor()
	b1 := Ballot(1, 1)
	a.Prepare("g", 0, b1)
	a.Accept("g", 0, b1, []byte("val1"))

	b2 := Ballot(2, 2)
	res, err := a.Prepare("g", 0, b2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK {
		t.Fatal("higher prepare refused")
	}
	if res.VoteBallot != b1 || string(res.VoteValue) != "val1" {
		t.Fatalf("vote = (%d,%q), want (%d,val1)", res.VoteBallot, res.VoteValue, b1)
	}
	// After the new promise, the old proposer's accept must fail.
	ar, _ := a.Accept("g", 0, b1, []byte("late"))
	if ar.OK {
		t.Fatal("accept at superseded ballot succeeded")
	}
	// Vote unchanged.
	vb, vv, _ := a.Vote("g", 0)
	if vb != b1 || string(vv) != "val1" {
		t.Fatalf("vote mutated: (%d,%q)", vb, vv)
	}
}

func TestVoteChangesAtNewBallot(t *testing.T) {
	a := newAcceptor()
	b1, b2 := Ballot(1, 1), Ballot(2, 2)
	a.Prepare("g", 0, b1)
	a.Accept("g", 0, b1, []byte("v1"))
	a.Prepare("g", 0, b2)
	res, _ := a.Accept("g", 0, b2, []byte("v2"))
	if !res.OK {
		t.Fatal("accept at promised higher ballot refused")
	}
	vb, vv, _ := a.Vote("g", 0)
	if vb != b2 || string(vv) != "v2" {
		t.Fatalf("vote = (%d,%q), want (%d,v2)", vb, vv, b2)
	}
}

func TestFastBallotAccept(t *testing.T) {
	a := newAcceptor()
	// Fresh acceptor takes a fast accept.
	res, err := a.Accept("g", 0, FastBallot, []byte("fast"))
	if err != nil || !res.OK {
		t.Fatalf("fast accept on fresh acceptor: %+v, %v", res, err)
	}
	vb, vv, _ := a.Vote("g", 0)
	if vb != FastBallot || string(vv) != "fast" {
		t.Fatalf("vote = (%d,%q)", vb, vv)
	}
	// A second fast accept must be refused (a vote exists).
	res, _ = a.Accept("g", 0, FastBallot, []byte("other"))
	if res.OK {
		t.Fatal("second fast accept succeeded; fast path must be one-shot")
	}
	// A prepared acceptor refuses fast accepts on that position.
	a2 := newAcceptor()
	a2.Prepare("g", 0, Ballot(1, 1))
	res, _ = a2.Accept("g", 0, FastBallot, []byte("fast"))
	if res.OK {
		t.Fatal("fast accept after promise succeeded")
	}
}

func TestFastVoteSurvivesIntoPrepare(t *testing.T) {
	a := newAcceptor()
	a.Accept("g", 0, FastBallot, []byte("fast"))
	res, _ := a.Prepare("g", 0, Ballot(1, 1))
	if !res.OK {
		t.Fatal("prepare after fast vote refused")
	}
	if res.VoteBallot != FastBallot || string(res.VoteValue) != "fast" {
		t.Fatalf("prepare must surface the fast vote, got (%d,%q)", res.VoteBallot, res.VoteValue)
	}
}

func TestPositionsAreIndependent(t *testing.T) {
	a := newAcceptor()
	a.Prepare("g", 0, Ballot(9, 1))
	res, _ := a.Prepare("g", 1, Ballot(1, 1))
	if !res.OK {
		t.Fatal("promise on position 0 leaked into position 1")
	}
	res, _ = a.Prepare("other-group", 0, Ballot(1, 1))
	if !res.OK {
		t.Fatal("promise leaked across groups")
	}
}

// TestConcurrentPreparesSafety: under concurrent prepares and accepts, the
// final promise must be the max granted ballot and at most one vote can
// exist per ballot.
func TestConcurrentPreparesSafety(t *testing.T) {
	a := newAcceptor()
	const n = 32
	var wg sync.WaitGroup
	granted := make([]bool, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := a.Prepare("g", 0, Ballot(int64(i+1), i%MaxClients))
			if err != nil {
				t.Errorf("Prepare: %v", err)
				return
			}
			granted[i] = res.OK
		}(i)
	}
	wg.Wait()
	// The highest ballot must have been granted.
	if !granted[n-1] {
		t.Fatal("highest ballot was refused")
	}
	p, _ := a.Promised("g", 0)
	if p != Ballot(n, (n-1)%MaxClients) {
		t.Fatalf("final promise = %d, want %d", p, Ballot(n, (n-1)%MaxClients))
	}
}

// TestPrepareAcceptRaceNoLostVote reproduces the race that motivated the
// seq-based CAS: a prepare that interleaves with an accept must never
// produce a granted promise whose reported vote misses that accept.
func TestPrepareAcceptRaceNoLostVote(t *testing.T) {
	for iter := 0; iter < 200; iter++ {
		a := newAcceptor()
		b1 := Ballot(1, 1)
		if _, err := a.Prepare("g", 0, b1); err != nil {
			t.Fatal(err)
		}
		b2 := Ballot(2, 2)
		var wg sync.WaitGroup
		var prep PrepareResult
		wg.Add(2)
		go func() {
			defer wg.Done()
			a.Accept("g", 0, b1, []byte("v1"))
		}()
		go func() {
			defer wg.Done()
			prep, _ = a.Prepare("g", 0, b2)
		}()
		wg.Wait()
		if !prep.OK {
			continue
		}
		// If the accept landed before the prepare's CAS, the prepare must
		// have seen the vote. Check consistency: when the acceptor's vote is
		// v1@b1 and the prepare reported a null vote, the accept must have
		// happened after the promise switched to b2 — impossible, because
		// accept requires nextBal == b1. So: vote recorded => prepare saw it.
		vb, _, _ := a.Vote("g", 0)
		if vb == b1 && prep.VoteBallot == NilBallot {
			t.Fatalf("iter %d: lost vote — acceptor voted at %d but prepare reported null", iter, b1)
		}
	}
}

func TestAcceptorManyPositions(t *testing.T) {
	a := newAcceptor()
	for pos := int64(0); pos < 50; pos++ {
		b := Ballot(1, int(pos)%MaxClients)
		if res, err := a.Prepare("g", pos, b); err != nil || !res.OK {
			t.Fatalf("pos %d prepare: %+v %v", pos, res, err)
		}
		val := []byte(fmt.Sprintf("v%d", pos))
		if res, err := a.Accept("g", pos, b, val); err != nil || !res.OK {
			t.Fatalf("pos %d accept: %+v %v", pos, res, err)
		}
	}
	for pos := int64(0); pos < 50; pos++ {
		_, vv, _ := a.Vote("g", pos)
		if string(vv) != fmt.Sprintf("v%d", pos) {
			t.Fatalf("pos %d vote = %q", pos, vv)
		}
	}
}

// TestDecidedRowIsFinal: a row in the decided form answers every prepare with
// its value at DecidedBallot, acknowledges an accept of that value, refuses
// any other — and is never written, whatever the ballot.
func TestDecidedRowIsFinal(t *testing.T) {
	a := newAcceptor()
	key := StateKey("g", 3)
	if err := a.store.ApplyBatch([]kvstore.BatchWrite{{Key: key, Value: DecidedRow("Y"), Replace: true}}); err != nil {
		t.Fatal(err)
	}
	unchanged := func(after string) {
		t.Helper()
		row, _, err := a.store.ReadPacked(key, kvstore.Latest)
		if err != nil || row != DecidedRow("Y") || a.store.Versions(key) != 1 {
			t.Fatalf("after %s the row is %v (%d versions, %v), want the decided form untouched", after, row.Unpack(), a.store.Versions(key), err)
		}
	}
	for _, ballot := range []int64{Ballot(1, 1), Ballot(9, 2), Ballot(2, 3)} { // not ascending: no promise is kept
		res, err := a.Prepare("g", 3, ballot)
		if err != nil || !res.OK || res.VoteBallot != DecidedBallot || string(res.VoteValue) != "Y" || res.Promised != ballot {
			t.Fatalf("prepare(%d) on a decided row = %+v %v", ballot, res, err)
		}
		unchanged("prepare")
	}
	for _, ballot := range []int64{FastBallot, Ballot(1, 1), Ballot(9, 2)} {
		if res, err := a.Accept("g", 3, ballot, []byte("Y")); err != nil || !res.OK || !res.Decided {
			t.Fatalf("accept(%d, Y) on a row decided Y = %+v %v, want OK from a decided row", ballot, res, err)
		}
		unchanged("accept of the decided value")
		if res, err := a.Accept("g", 3, ballot, []byte("X")); err != nil || res.OK || res.Promised == DecidedBallot {
			t.Fatalf("accept(%d, X) on a row decided Y = %+v %v, want a refusal that cannot feed NextBallot", ballot, res, err)
		}
		unchanged("accept of another value")
	}
	if bal, val, err := a.Vote("g", 3); err != nil || bal != DecidedBallot || string(val) != "Y" {
		t.Fatalf("Vote on a decided row = %d %q %v", bal, val, err)
	}
}

// TestVoteStands: a vote stands in for the log entry only when it is for the
// decided bytes and the acceptor's promise has reached a ballot they were
// chosen at; the same bytes under a lower promise can still be overwritten.
func TestVoteStands(t *testing.T) {
	fast, low, high := FastBallot, Ballot(1, 1), Ballot(2, 1)
	row := func(steps func(a *Acceptor)) kvstore.Packed {
		a := newAcceptor()
		steps(a)
		r, _, err := a.store.ReadPacked(StateKey("g", 1), kvstore.Latest)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	fastVote := row(func(a *Acceptor) { a.Accept("g", 1, fast, []byte("Y")) })
	lowVote := row(func(a *Acceptor) { a.Prepare("g", 1, low); a.Accept("g", 1, low, []byte("Y")) })
	lowVoteHighPromise := row(func(a *Acceptor) {
		a.Prepare("g", 1, low)
		a.Accept("g", 1, low, []byte("Y"))
		a.Prepare("g", 1, high)
	})
	promiseOnly := row(func(a *Acceptor) { a.Prepare("g", 1, high) })
	for _, tc := range []struct {
		name     string
		row      kvstore.Packed
		entry    string
		chosenAt int64
		want     bool
	}{
		{"fast vote, chosen on the fast path", fastVote, "Y", fast, true},
		{"fast vote, chosen later without this acceptor", fastVote, "Y", low, false},
		{"vote at the choosing ballot", lowVote, "Y", low, true},
		{"vote below the choosing ballot", lowVote, "Y", high, false},
		{"old vote under a promise at the choosing ballot", lowVoteHighPromise, "Y", high, true},
		{"vote for other bytes", lowVote, "X", low, false},
		{"promise without a vote", promiseOnly, "Y", low, false},
		{"ballot unknown", lowVoteHighPromise, "Y", DecidedBallot, false},
		{"already decided", DecidedRow("Y"), "Y", fast, false},
	} {
		if got := VoteStands(tc.row, tc.entry, tc.chosenAt); got != tc.want {
			t.Errorf("%s: VoteStands = %t, want %t (row %v)", tc.name, got, tc.want, tc.row.Unpack())
		}
	}
}

// TestStragglerOverwritesVoteBelowChoosingBallot is why VoteStands asks for
// the promise: an acceptor that voted Y early and was not in the quorum that
// later chose Y still takes a delayed accept of X at a ballot in between.
func TestStragglerOverwritesVoteBelowChoosingBallot(t *testing.T) {
	a := newAcceptor()
	early, between := Ballot(1, 1), Ballot(2, 2)
	a.Prepare("g", 1, early)
	a.Accept("g", 1, early, []byte("Y"))
	// Y is chosen at Ballot(3, 3) by the other acceptors; this one only
	// answers ballot `between`, whose proposer picked X before that.
	a.Prepare("g", 1, between)
	if res, err := a.Accept("g", 1, between, []byte("X")); err != nil || !res.OK {
		t.Fatalf("accept = %+v %v", res, err)
	}
	if _, val, _ := a.Vote("g", 1); string(val) != "X" {
		t.Fatalf("vote = %q, want the straggler's X", val)
	}
}

// TestCheckLayoutRefusesLegacyRows: a store that holds a row under paxos/ was
// written by a build that kept acceptor state apart from the log.
func TestCheckLayoutRefusesLegacyRows(t *testing.T) {
	store := kvstore.New()
	if err := CheckLayout(store); err != nil {
		t.Fatalf("empty store refused: %v", err)
	}
	NewAcceptor(store).Accept("g", 1, FastBallot, []byte("Y"))
	if err := CheckLayout(store); err != nil {
		t.Fatalf("a store in this build's layout refused: %v", err)
	}
	if err := store.CheckAndWrite("paxos/g0/7", "seq", "", kvstore.PackAttrs("nextBal", "65537", "seq", "1")); err != nil {
		t.Fatal(err)
	}
	if err := CheckLayout(store); err == nil || !strings.Contains(err.Error(), "paxos/g0/7") {
		t.Fatalf("CheckLayout = %v, want an error naming paxos/g0/7", err)
	}
}
