package core

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/wal"
)

// newServiceRing wires D services over a simulated network and returns them
// with the sim for fault injection.
func newServiceRing(t *testing.T, dcs ...string) (map[string]*Service, *network.Sim) {
	t.Helper()
	topo := network.NewTopology(dcs...)
	sim := network.NewSim(topo, network.SimConfig{Seed: 3})
	t.Cleanup(sim.Close)
	services := make(map[string]*Service, len(dcs))
	for _, dc := range dcs {
		dc := dc
		ep := sim.Endpoint(dc, func(from string, req network.Message) network.Message {
			return services[dc].Handler()(from, req)
		})
		services[dc] = NewService(dc, kvstore.New(), ep, WithServiceTimeout(200*time.Millisecond))
	}
	return services, sim
}

func entryBytes(id string, readPos int64, writes map[string]string) []byte {
	return wal.Encode(wal.NewEntry(wal.Txn{
		ID: id, Origin: "A", ReadPos: readPos, Writes: writes,
	}))
}

func TestServiceApplyAdvancesHorizonInOrder(t *testing.T) {
	services, _ := newServiceRing(t, "A")
	s := services["A"]
	// Applying position 2 first leaves the horizon at 0 (hole at 1).
	if err := s.ApplyDecided("g", 2, entryBytes("t2", 1, map[string]string{"x": "2"})); err != nil {
		t.Fatal(err)
	}
	if got := s.LastApplied("g"); got != 0 {
		t.Fatalf("horizon after out-of-order apply = %d, want 0", got)
	}
	// Filling position 1 advances through both.
	if err := s.ApplyDecided("g", 1, entryBytes("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	if got := s.LastApplied("g"); got != 2 {
		t.Fatalf("horizon = %d, want 2", got)
	}
	// Data visible at each position.
	resp := s.Handler()("A", network.Message{Kind: network.KindRead, Group: "g", Key: "x", TS: 1})
	if !resp.OK || !resp.Found || resp.Value != "1" {
		t.Fatalf("read@1 = %+v", resp)
	}
	resp = s.Handler()("A", network.Message{Kind: network.KindRead, Group: "g", Key: "x", TS: 2})
	if resp.Value != "2" {
		t.Fatalf("read@2 = %+v", resp)
	}
}

func TestServiceApplyIdempotent(t *testing.T) {
	services, _ := newServiceRing(t, "A")
	s := services["A"]
	b := entryBytes("t1", 0, map[string]string{"x": "1"})
	for i := 0; i < 3; i++ {
		if err := s.ApplyDecided("g", 1, b); err != nil {
			t.Fatalf("apply #%d: %v", i, err)
		}
	}
	if got := s.LastApplied("g"); got != 1 {
		t.Fatalf("horizon = %d", got)
	}
}

func TestServiceApplyConflictingEntryRejected(t *testing.T) {
	services, _ := newServiceRing(t, "A")
	s := services["A"]
	if err := s.ApplyDecided("g", 1, entryBytes("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	// A different decided value for the same position is an (R1) breach;
	// the store must refuse to overwrite.
	if err := s.ApplyDecided("g", 1, entryBytes("OTHER", 0, map[string]string{"x": "9"})); err == nil {
		t.Fatal("conflicting rewrite of decided position accepted")
	}
	entry, ok := s.DecidedEntry("g", 1)
	if !ok || !entry.Contains("t1") {
		t.Fatalf("original entry lost: %v %v", entry, ok)
	}
}

func TestServiceApplyRejectsGarbage(t *testing.T) {
	services, _ := newServiceRing(t, "A")
	s := services["A"]
	resp := s.Handler()("A", network.Message{Kind: network.KindApply, Group: "g", Pos: 1, Payload: []byte("junk")})
	if resp.OK {
		t.Fatal("garbage apply accepted")
	}
	resp = s.Handler()("A", network.Message{Kind: network.KindApply, Group: "g", Pos: 0, Payload: entryBytes("t", 0, nil)})
	if resp.OK {
		t.Fatal("apply at position 0 accepted")
	}
}

func TestServiceReadPos(t *testing.T) {
	services, _ := newServiceRing(t, "A")
	s := services["A"]
	resp := s.Handler()("A", network.Message{Kind: network.KindReadPos, Group: "g"})
	if !resp.OK || resp.TS != 0 {
		t.Fatalf("empty readpos = %+v", resp)
	}
	s.ApplyDecided("g", 1, entryBytes("t1", 0, map[string]string{"x": "1"}))
	resp = s.Handler()("A", network.Message{Kind: network.KindReadPos, Group: "g"})
	if resp.TS != 1 {
		t.Fatalf("readpos = %+v", resp)
	}
}

func TestServiceReadMissingKey(t *testing.T) {
	services, _ := newServiceRing(t, "A")
	s := services["A"]
	resp := s.Handler()("A", network.Message{Kind: network.KindRead, Group: "g", Key: "nope", TS: 0})
	if !resp.OK || resp.Found {
		t.Fatalf("missing key read = %+v", resp)
	}
}

func TestServiceCatchUpFromPeer(t *testing.T) {
	services, _ := newServiceRing(t, "A", "B", "C")
	// Positions 1–3 decided at A and B; C missed everything.
	for pos := int64(1); pos <= 3; pos++ {
		b := entryBytes("t"+string(rune('0'+pos)), pos-1, map[string]string{"x": string(rune('0' + pos))})
		services["A"].ApplyDecided("g", pos, b)
		services["B"].ApplyDecided("g", pos, b)
	}
	// A read at position 3 against C triggers catch-up.
	resp := services["C"].Handler()("client", network.Message{Kind: network.KindRead, Group: "g", Key: "x", TS: 3})
	if !resp.OK || resp.Value != "3" {
		t.Fatalf("read after catch-up = %+v", resp)
	}
	if got := services["C"].LastApplied("g"); got != 3 {
		t.Fatalf("C horizon = %d, want 3", got)
	}
}

func TestServiceFetchLog(t *testing.T) {
	services, _ := newServiceRing(t, "A")
	s := services["A"]
	resp := s.Handler()("B", network.Message{Kind: network.KindFetchLog, Group: "g", Pos: 1})
	if resp.OK {
		t.Fatalf("fetch of unknown position = %+v", resp)
	}
	b := entryBytes("t1", 0, map[string]string{"x": "1"})
	s.ApplyDecided("g", 1, b)
	resp = s.Handler()("B", network.Message{Kind: network.KindFetchLog, Group: "g", Pos: 1})
	if !resp.OK || string(resp.Payload) != string(b) {
		t.Fatalf("fetchlog = %+v", resp)
	}
}

func TestServiceLeaderComputation(t *testing.T) {
	services, _ := newServiceRing(t, "A", "B", "C")
	s := services["B"]
	// Position 1: initial leader is the first datacenter.
	if got := s.Leader("g", 1); got != "A" {
		t.Fatalf("initial leader = %q, want A", got)
	}
	// After B's client wins position 1, B leads position 2.
	entry := wal.NewEntry(wal.Txn{ID: "t1", Origin: "B", Writes: map[string]string{"x": "1"}})
	s.ApplyDecided("g", 1, wal.Encode(entry))
	if got := s.Leader("g", 2); got != "B" {
		t.Fatalf("leader after B won = %q, want B", got)
	}
	// Unknown previous position: no leader.
	if got := s.Leader("g", 9); got != "" {
		t.Fatalf("leader with unknown history = %q, want empty", got)
	}
}

func TestServiceClaimFirstWins(t *testing.T) {
	services, _ := newServiceRing(t, "A", "B")
	s := services["A"] // initial leader for position 1
	claim := func(token string) network.Message {
		return s.Handler()("A", network.Message{
			Kind: network.KindClaimLeader, Group: "g", Pos: 1, Value: token,
		})
	}
	if resp := claim("c1"); !resp.OK {
		t.Fatalf("first claim refused: %+v", resp)
	}
	if resp := claim("c1"); !resp.OK {
		t.Fatalf("repeat claim by owner refused: %+v", resp)
	}
	if resp := claim("c2"); resp.OK {
		t.Fatalf("second claimant granted: %+v", resp)
	}
}

// TestServiceClaimPerTransactionNotPerClient guards the fast-path safety
// fix: a claim is granted to one transaction, and a different transaction —
// even from the same client — must be refused. Otherwise two different
// values could be proposed at the fast ballot for one position.
func TestServiceClaimPerTransactionNotPerClient(t *testing.T) {
	services, _ := newServiceRing(t, "A", "B")
	s := services["A"]
	claim := func(txnID string) network.Message {
		return s.Handler()("A", network.Message{
			Kind: network.KindClaimLeader, Group: "g", Pos: 1, Value: txnID,
		})
	}
	if resp := claim("A-1-4"); !resp.OK {
		t.Fatalf("first transaction refused: %+v", resp)
	}
	// Duplicate claim message of the same transaction: idempotent grant.
	if resp := claim("A-1-4"); !resp.OK {
		t.Fatalf("duplicate claim refused: %+v", resp)
	}
	// The same client's NEXT transaction must not inherit the fast path.
	if resp := claim("A-1-6"); resp.OK {
		t.Fatalf("later transaction inherited the fast path: %+v", resp)
	}
}

func TestServiceClaimNonLeaderHints(t *testing.T) {
	services, _ := newServiceRing(t, "A", "B")
	resp := services["B"].Handler()("B", network.Message{
		Kind: network.KindClaimLeader, Group: "g", Pos: 1, Value: "c1",
	})
	if resp.OK {
		t.Fatal("non-leader granted claim")
	}
	if resp.Value != "A" {
		t.Fatalf("leader hint = %q, want A", resp.Value)
	}
}

func TestServiceRecoverLearnsMissedEntries(t *testing.T) {
	services, sim := newServiceRing(t, "A", "B", "C")
	// C goes down; positions decided at A and B.
	sim.SetDown("C", true)
	for pos := int64(1); pos <= 4; pos++ {
		b := entryBytes("t"+string(rune('0'+pos)), pos-1, map[string]string{"k": string(rune('0' + pos))})
		services["A"].ApplyDecided("g", pos, b)
		services["B"].ApplyDecided("g", pos, b)
	}
	sim.SetDown("C", false)
	if err := services["C"].Recover(context.Background(), "g"); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if got := services["C"].LastApplied("g"); got != 4 {
		t.Fatalf("C horizon after recovery = %d, want 4", got)
	}
	entry, ok := services["C"].DecidedEntry("g", 4)
	if !ok || !entry.Contains("t4") {
		t.Fatalf("C log position 4 = %v %v", entry, ok)
	}
}

func TestServiceUnknownKind(t *testing.T) {
	services, _ := newServiceRing(t, "A")
	resp := services["A"].Handler()("A", network.Message{Kind: "bogus"})
	if resp.OK {
		t.Fatal("unknown kind accepted")
	}
}

func TestServiceLogSnapshot(t *testing.T) {
	services, _ := newServiceRing(t, "A")
	s := services["A"]
	if snap := s.LogSnapshot("g"); len(snap) != 0 {
		t.Fatalf("empty log snapshot = %v", snap)
	}
	s.ApplyDecided("g", 1, entryBytes("t1", 0, map[string]string{"x": "1"}))
	s.ApplyDecided("g", 2, entryBytes("t2", 1, map[string]string{"x": "2"}))
	s.ApplyDecided("other", 1, entryBytes("o1", 0, map[string]string{"y": "1"}))
	snap := s.LogSnapshot("g")
	if len(snap) != 2 || !snap[1].Contains("t1") || !snap[2].Contains("t2") {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestConcurrentLearnersAgree: three replicas that learn the same undecided
// positions at once — what a cluster does when all of it recovers together —
// must each get an answer, and the same one. Without a pause between refused
// rounds they outbid each other until one runs out of rounds.
func TestConcurrentLearnersAgree(t *testing.T) {
	services, _ := leaseRing(t, 300*time.Millisecond)
	dcs := []string{"A", "B", "C"}
	const positions = 200
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	failed := 0
	for pos := int64(1); pos <= positions; pos++ {
		learned := make([]wal.Entry, len(dcs))
		errs := make([]error, len(dcs))
		var wg sync.WaitGroup
		for i, dc := range dcs {
			wg.Add(1)
			go func(i int, s *Service) {
				defer wg.Done()
				learned[i], errs[i] = s.learn(ctx, "g", pos, true)
			}(i, services[dc])
		}
		wg.Wait()
		for i, dc := range dcs {
			switch {
			case errs[i] != nil:
				failed++
				t.Errorf("%s: %v", dc, errs[i])
			case errs[0] == nil && !reflect.DeepEqual(learned[i], learned[0]):
				t.Errorf("position %d: %s learned %+v, %s learned %+v", pos, dc, learned[i], dcs[0], learned[0])
			}
		}
	}
	if failed > 0 {
		t.Fatalf("%d of %d calls failed", failed, positions*len(dcs))
	}
	// Every learner's apply reached every replica: all three hold each entry.
	for _, dc := range dcs {
		if err := services[dc].log("g").WaitApplied(ctx, positions); err != nil {
			t.Fatalf("%s: %v", dc, err)
		}
		for pos := int64(1); pos <= positions; pos++ {
			got, _ := services[dc].DecidedEntry("g", pos)
			want, _ := services[dcs[0]].DecidedEntry("g", pos)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("position %d: %s holds %+v, %s holds %+v", pos, dc, got, dcs[0], want)
			}
		}
	}
}
