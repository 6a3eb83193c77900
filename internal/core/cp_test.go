package core

import (
	"testing"
	"testing/quick"

	"paxoscp/internal/paxos"
	"paxoscp/internal/wal"
)

func mkTxn(id string, reads []string, writes map[string]string) wal.Txn {
	return wal.Txn{ID: id, Origin: "V1", ReadPos: 4, ReadSet: reads, Writes: writes}
}

func newTestClient(cfg Config) *Client {
	// Transport is unused by the value-selection logic under test.
	cfg.Seed = 1
	return &Client{id: 1, dc: "V1", cfg: cfg}
}

func vote(dc string, ballot int64, e wal.Entry) paxos.Vote {
	return paxos.Vote{DC: dc, Ballot: ballot, Value: wal.Encode(e)}
}

func nullVote(dc string) paxos.Vote {
	return paxos.Vote{DC: dc, Ballot: paxos.NilBallot}
}

func TestMostVotedValue(t *testing.T) {
	e1 := wal.NewEntry(mkTxn("a", nil, map[string]string{"x": "1"}))
	e2 := wal.NewEntry(mkTxn("b", nil, map[string]string{"y": "1"}))
	votes := []paxos.Vote{
		vote("A", 1, e1), vote("B", 2, e1), vote("C", 3, e2), nullVote("D"),
	}
	val, n := mostVotedValue(votes)
	if n != 2 || string(val) != string(wal.Encode(e1)) {
		t.Fatalf("mostVotedValue = (%q, %d)", val, n)
	}
	if _, n := mostVotedValue([]paxos.Vote{nullVote("A")}); n != 0 {
		t.Fatalf("null votes counted: %d", n)
	}
}

func TestCombineDisjointTxns(t *testing.T) {
	c := newTestClient(Config{Protocol: CP})
	own := wal.NewEntry(mkTxn("own", []string{"a"}, map[string]string{"b": "1"}))
	t1 := mkTxn("t1", []string{"c"}, map[string]string{"d": "1"})
	t2 := mkTxn("t2", []string{"e"}, map[string]string{"f": "1"})
	votes := []paxos.Vote{vote("A", 1, wal.NewEntry(t1)), vote("B", 1, wal.NewEntry(t2))}

	combined := c.combine(own, votes)
	if len(combined.Txns) != 3 {
		t.Fatalf("combined %d txns, want 3: %s", len(combined.Txns), combined)
	}
	if combined.Txns[0].ID != "own" {
		t.Fatalf("own transaction must head the list: %s", combined)
	}
	if !combined.SerializableOrder() {
		t.Fatalf("combined entry not serializable: %s", combined)
	}
}

func TestCombineConflictingCandidateDropped(t *testing.T) {
	c := newTestClient(Config{Protocol: CP})
	own := wal.NewEntry(mkTxn("own", nil, map[string]string{"x": "1"}))
	// reader reads x, which own writes: cannot follow own in the list.
	reader := mkTxn("t-reader", []string{"x"}, map[string]string{"y": "1"})
	clean := mkTxn("t-clean", []string{"z"}, map[string]string{"w": "1"})
	votes := []paxos.Vote{vote("A", 1, wal.NewEntry(reader)), vote("B", 1, wal.NewEntry(clean))}

	combined := c.combine(own, votes)
	if combined.Contains("t-reader") {
		t.Fatalf("conflicting transaction combined: %s", combined)
	}
	if !combined.Contains("t-clean") || !combined.Contains("own") {
		t.Fatalf("non-conflicting transaction dropped: %s", combined)
	}
}

func TestCombineOrderSearchFindsWorkableOrder(t *testing.T) {
	c := newTestClient(Config{Protocol: CP})
	own := wal.NewEntry(mkTxn("own", []string{"q"}, map[string]string{"r": "1"}))
	// t1 writes a; t2 reads a. Order [t2, t1] works, [t1, t2] does not.
	t1 := mkTxn("t1", nil, map[string]string{"a": "1"})
	t2 := mkTxn("t2", []string{"a"}, map[string]string{"b": "1"})
	votes := []paxos.Vote{vote("A", 1, wal.NewEntry(t1)), vote("B", 1, wal.NewEntry(t2))}

	combined := c.combine(own, votes)
	if len(combined.Txns) != 3 {
		t.Fatalf("order search failed to place both txns: %s", combined)
	}
	if !combined.SerializableOrder() {
		t.Fatalf("combined entry not serializable: %s", combined)
	}
}

func TestCombineGreedyBeyondLimit(t *testing.T) {
	c := newTestClient(Config{Protocol: CP, CombineLimit: 2})
	own := wal.NewEntry(mkTxn("own", nil, map[string]string{"o": "1"}))
	var votes []paxos.Vote
	for i := 0; i < 6; i++ {
		id := string(rune('a' + i))
		votes = append(votes, vote(id, int64(i+1), wal.NewEntry(
			mkTxn("t-"+id, []string{"r" + id}, map[string]string{"w" + id: "1"}))))
	}
	combined := c.combine(own, votes)
	if len(combined.Txns) != 7 {
		t.Fatalf("greedy pass combined %d of 7: %s", len(combined.Txns), combined)
	}
	if !combined.SerializableOrder() {
		t.Fatalf("not serializable: %s", combined)
	}
}

func TestCombineDeduplicatesCandidates(t *testing.T) {
	c := newTestClient(Config{Protocol: CP})
	own := wal.NewEntry(mkTxn("own", nil, map[string]string{"o": "1"}))
	t1 := mkTxn("t1", nil, map[string]string{"a": "1"})
	// Same transaction voted at two datacenters.
	votes := []paxos.Vote{vote("A", 1, wal.NewEntry(t1)), vote("B", 2, wal.NewEntry(t1))}
	combined := c.combine(own, votes)
	if len(combined.Txns) != 2 {
		t.Fatalf("duplicate candidate not deduplicated: %s", combined)
	}
}

func TestChooseCPCombinesWhenNoMajorityPossible(t *testing.T) {
	c := newTestClient(Config{Protocol: CP})
	ownTxn := mkTxn("own", nil, map[string]string{"o": "1"})
	own := wal.NewEntry(ownTxn)
	other := wal.NewEntry(mkTxn("t1", nil, map[string]string{"a": "1"}))
	// D=3, all 3 responded, votes: 1 for other, 2 null. maxVotes=1,
	// 1 + (3-3) = 1 <= 1 -> combination window.
	prep := paxos.PrepareOutcome{
		D: 3, Acks: 3,
		Votes: []paxos.Vote{vote("A", 1, other), nullVote("B"), nullVote("C")},
	}
	decided, err := wal.Decode(c.chooseCP(prep, own))
	if err != nil {
		t.Fatal(err)
	}
	if !decided.Contains("own") || !decided.Contains("t1") {
		t.Fatalf("expected combination, got %s", decided)
	}
}

func TestChooseCPDrivesExistingWinner(t *testing.T) {
	c := newTestClient(Config{Protocol: CP})
	own := wal.NewEntry(mkTxn("own", nil, map[string]string{"o": "1"}))
	winner := wal.NewEntry(mkTxn("w", nil, map[string]string{"a": "1"}))
	// D=3, 2 votes for winner: maxVotes=2 > 1 -> drive the winner.
	prep := paxos.PrepareOutcome{
		D: 3, Acks: 3,
		Votes: []paxos.Vote{vote("A", 5, winner), vote("B", 5, winner), nullVote("C")},
	}
	got := c.chooseCP(prep, own)
	if string(got) != string(wal.Encode(winner)) {
		t.Fatalf("expected winner proposal, got %q", got)
	}
}

func TestChooseCPKeepsOwnWhenPartOfWinner(t *testing.T) {
	c := newTestClient(Config{Protocol: CP})
	ownTxn := mkTxn("own", nil, map[string]string{"o": "1"})
	own := wal.NewEntry(ownTxn)
	winner := wal.NewEntry(mkTxn("w", nil, map[string]string{"a": "1"}), ownTxn)
	prep := paxos.PrepareOutcome{
		D: 3, Acks: 3,
		Votes: []paxos.Vote{vote("A", 5, winner), vote("B", 5, winner), nullVote("C")},
	}
	// Own txn is inside the majority value: fall through to the basic rule,
	// which adopts the max-ballot vote — the same winner. Either way the
	// proposal must contain own.
	decided, err := wal.Decode(c.chooseCP(prep, own))
	if err != nil {
		t.Fatal(err)
	}
	if !decided.Contains("own") {
		t.Fatalf("own dropped from winner: %s", decided)
	}
}

func TestChooseCPFallsBackToBasicRule(t *testing.T) {
	c := newTestClient(Config{Protocol: CP})
	own := wal.NewEntry(mkTxn("own", nil, map[string]string{"o": "1"}))
	other := wal.NewEntry(mkTxn("t1", nil, map[string]string{"a": "1"}))
	// D=3 but only 2 responses: maxVotes=1, 1+(3-2)=2 > 1, and no majority
	// -> basic rule adopts the max-ballot vote.
	prep := paxos.PrepareOutcome{
		D: 3, Acks: 2,
		Votes: []paxos.Vote{vote("A", 7, other), nullVote("B")},
	}
	got := c.chooseCP(prep, own)
	if string(got) != string(wal.Encode(other)) {
		t.Fatalf("basic fallback must adopt max-ballot vote")
	}
}

func TestChooseCPDisableCombination(t *testing.T) {
	c := newTestClient(Config{Protocol: CP, DisableCombination: true})
	own := wal.NewEntry(mkTxn("own", nil, map[string]string{"o": "1"}))
	other := wal.NewEntry(mkTxn("t1", nil, map[string]string{"a": "1"}))
	prep := paxos.PrepareOutcome{
		D: 3, Acks: 3,
		Votes: []paxos.Vote{vote("A", 1, other), nullVote("B"), nullVote("C")},
	}
	decided, err := wal.Decode(c.chooseCP(prep, own))
	if err != nil {
		t.Fatal(err)
	}
	if len(decided.Txns) != 1 || !decided.Contains("own") {
		t.Fatalf("with combination disabled expected own only, got %s", decided)
	}
}

func TestChooseBasicAdoptsMaxBallotVote(t *testing.T) {
	c := newTestClient(Config{})
	own := wal.NewEntry(mkTxn("own", nil, map[string]string{"o": "1"}))
	low := wal.NewEntry(mkTxn("low", nil, map[string]string{"a": "1"}))
	high := wal.NewEntry(mkTxn("high", nil, map[string]string{"b": "1"}))
	prep := paxos.PrepareOutcome{
		D: 3, Acks: 3,
		Votes: []paxos.Vote{vote("A", 1, low), vote("B", 9, high), nullVote("C")},
	}
	if got := c.chooseBasic(prep, own); string(got) != string(wal.Encode(high)) {
		t.Fatal("chooseBasic must adopt the highest-ballot vote")
	}
	// All null: own value.
	prep = paxos.PrepareOutcome{D: 3, Acks: 3, Votes: []paxos.Vote{nullVote("A"), nullVote("B")}}
	if got := c.chooseBasic(prep, own); string(got) != string(wal.Encode(own)) {
		t.Fatal("chooseBasic must propose own value when all votes are null")
	}
}

func TestPermuteCoversAllOrders(t *testing.T) {
	txns := []wal.Txn{mkTxn("a", nil, nil), mkTxn("b", nil, nil), mkTxn("c", nil, nil)}
	seen := map[string]bool{}
	permute(txns, func(p []wal.Txn) bool {
		key := ""
		for _, t := range p {
			key += t.ID
		}
		seen[key] = true
		return false
	})
	if len(seen) != 6 {
		t.Fatalf("permute visited %d orders, want 6: %v", len(seen), seen)
	}
}

func TestPermuteEmpty(t *testing.T) {
	calls := 0
	permute(nil, func(p []wal.Txn) bool { calls++; return false })
	if calls != 1 {
		t.Fatalf("permute(nil) invoked fn %d times, want 1", calls)
	}
}

// TestPropCombineAlwaysSerializableAndContainsOwn: for arbitrary candidate
// sets over a small key space, the combined entry is serializable in list
// order and always contains the client's transaction first.
func TestPropCombineAlwaysSerializableAndContainsOwn(t *testing.T) {
	c := newTestClient(Config{Protocol: CP})
	keys := []string{"k0", "k1", "k2"}
	f := func(spec []uint8) bool {
		own := wal.NewEntry(mkTxn("own", []string{keys[0]}, map[string]string{keys[1]: "v"}))
		var votes []paxos.Vote
		for i, s := range spec {
			if i >= 5 {
				break
			}
			r := keys[int(s)%3]
			w := keys[int(s>>2)%3]
			id := "t" + string(rune('a'+i))
			votes = append(votes, vote(id, int64(i+1),
				wal.NewEntry(mkTxn(id, []string{r}, map[string]string{w: "v"}))))
		}
		combined := c.combine(own, votes)
		return combined.SerializableOrder() &&
			len(combined.Txns) >= 1 && combined.Txns[0].ID == "own"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestPropExhaustiveNeverWorseThanGreedy: the exhaustive search must combine
// at least as many transactions as the greedy pass.
func TestPropExhaustiveNeverWorseThanGreedy(t *testing.T) {
	keys := []string{"a", "b", "c", "d"}
	f := func(spec []uint8) bool {
		own := wal.NewEntry(mkTxn("own", nil, map[string]string{"own-key": "v"}))
		var cands []wal.Txn
		for i, s := range spec {
			if i >= 4 {
				break
			}
			r := keys[int(s)%4]
			w := keys[int(s>>3)%4]
			id := "t" + string(rune('a'+i))
			cands = append(cands, mkTxn(id, []string{r}, map[string]string{w: "v"}))
		}
		ex := combineExhaustive(own, cands)
		gr := combineGreedy(own, cands)
		return len(ex.Txns) >= len(gr.Txns) && ex.SerializableOrder()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
