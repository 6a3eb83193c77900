package paxos

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
)

// testCluster wires D acceptors (one per datacenter) into a simulated
// network and returns proposer endpoints.
type testCluster struct {
	sim       *network.Sim
	acceptors map[string]*Acceptor
	applied   map[string][]byte // last applied value per DC
	mu        sync.Mutex
}

func newTestCluster(t *testing.T, dcs ...string) *testCluster {
	t.Helper()
	topo := network.NewTopology(dcs...)
	for i, a := range dcs {
		for _, b := range dcs[i+1:] {
			topo.SetRTT(a, b, time.Millisecond)
		}
	}
	tc := &testCluster{
		sim:       network.NewSim(topo, network.SimConfig{Seed: 7}),
		acceptors: make(map[string]*Acceptor),
		applied:   make(map[string][]byte),
	}
	t.Cleanup(tc.sim.Close)
	for _, dc := range dcs {
		tc.acceptors[dc] = NewAcceptor(kvstore.New())
		tc.sim.EndpointAsync(dc, tc.handler(dc))
	}
	return tc
}

// handler is dc's acceptor behind the wire, answering inline; an apply
// records its value.
func (tc *testCluster) handler(dc string) network.AsyncHandler {
	acc := tc.acceptors[dc]
	return func(from string, req network.Message, reply func(network.Message)) {
		if resp, ok := HandleMessage(acc, req); ok {
			reply(resp)
			return
		}
		if req.Kind == network.KindApply {
			tc.mu.Lock()
			tc.applied[dc] = req.Payload
			tc.mu.Unlock()
			reply(network.Status(true, ""))
			return
		}
		reply(network.Status(false, "unhandled"))
	}
}

func (tc *testCluster) proposer(dc string) *Proposer {
	return &Proposer{
		Transport: tc.sim.EndpointAsync(dc, tc.handler(dc)),
		Timeout:   200 * time.Millisecond,
	}
}

func TestProposerFullInstance(t *testing.T) {
	tc := newTestCluster(t, "A", "B", "C")
	p := tc.proposer("A")
	ctx := context.Background()
	b := Ballot(1, 1)

	prep := p.prepare(ctx, "g", 0, b, true)
	if prep.D != 3 || !prep.Quorum() {
		t.Fatalf("prepare outcome: %+v", prep)
	}
	for _, v := range prep.Votes {
		if !v.IsNull() {
			t.Fatalf("fresh instance returned non-null vote: %+v", v)
		}
	}

	acc := p.Accept(ctx, "g", 0, b, []byte("value"))
	if !acc.Quorum() {
		t.Fatalf("accept outcome: %+v", acc)
	}

	if acks := p.Apply(ctx, "g", 0, b, []byte("value")); acks < Majority(3) {
		t.Fatalf("apply acks = %d, want >= majority", acks)
	}
	tc.mu.Lock()
	defer tc.mu.Unlock()
	applied := 0
	for dc, v := range tc.applied {
		if string(v) != "value" {
			t.Fatalf("dc %s applied %q", dc, v)
		}
		applied++
	}
	if applied < Majority(3) {
		t.Fatalf("only %d datacenters applied", applied)
	}
}

func TestProposerSecondProposerLearnsFirstValue(t *testing.T) {
	tc := newTestCluster(t, "A", "B", "C")
	ctx := context.Background()

	p1 := tc.proposer("A")
	b1 := Ballot(1, 1)
	p1.prepare(ctx, "g", 0, b1, true)
	if acc := p1.Accept(ctx, "g", 0, b1, []byte("first")); !acc.Quorum() {
		t.Fatalf("p1 accept: %+v", acc)
	}

	// A competing proposer prepares with a higher ballot; at least one vote
	// for "first" must surface, and by the Paxos rule it must adopt it.
	p2 := tc.proposer("B")
	b2 := Ballot(2, 2)
	prep := p2.prepare(ctx, "g", 0, b2, true)
	if !prep.Quorum() {
		t.Fatalf("p2 prepare: %+v", prep)
	}
	var best Vote
	best.Ballot = NilBallot
	for _, v := range prep.Votes {
		if !v.IsNull() && v.Ballot > best.Ballot {
			best = v
		}
	}
	if best.IsNull() || string(best.Value) != "first" {
		t.Fatalf("p2 must discover the voted value, votes = %+v", prep.Votes)
	}
}

func TestProposerRefusedPrepareReportsHigherBallot(t *testing.T) {
	tc := newTestCluster(t, "A", "B", "C")
	ctx := context.Background()

	high := Ballot(9, 9)
	tc.proposer("A").prepare(ctx, "g", 0, high, true)

	low := Ballot(1, 1)
	prep := tc.proposer("B").prepare(ctx, "g", 0, low, true)
	if prep.Quorum() {
		t.Fatalf("low prepare acked: %+v", prep)
	}
	if prep.MaxSeen != high {
		t.Fatalf("MaxSeen = %d, want %d", prep.MaxSeen, high)
	}
	if next := NextBallot(prep.MaxSeen, 1); next <= high {
		t.Fatalf("retry ballot %d not above %d", next, high)
	}
}

func TestProposerToleratesMinorityDown(t *testing.T) {
	tc := newTestCluster(t, "A", "B", "C")
	tc.sim.SetDown("C", true)
	p := tc.proposer("A")
	ctx := context.Background()
	b := Ballot(1, 1)

	prep := p.prepare(ctx, "g", 0, b, true)
	if !prep.Quorum() || prep.Acks != 2 {
		t.Fatalf("prepare with 1 of 3 down: %+v", prep)
	}
	if acc := p.Accept(ctx, "g", 0, b, []byte("v")); !acc.Quorum() {
		t.Fatalf("accept with 1 of 3 down: %+v", acc)
	}
}

func TestProposerMajorityDownCannotProceed(t *testing.T) {
	tc := newTestCluster(t, "A", "B", "C")
	tc.sim.SetDown("B", true)
	tc.sim.SetDown("C", true)
	p := tc.proposer("A")
	p.Timeout = 50 * time.Millisecond

	start := time.Now()
	prep := p.prepare(context.Background(), "g", 0, Ballot(1, 1), true)
	if prep.Quorum() {
		t.Fatalf("quorum with majority down: %+v", prep)
	}
	if prep.Acks != 1 {
		t.Fatalf("acks = %d, want 1 (self only)", prep.Acks)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("prepare did not respect phase timeout")
	}
}

func TestProposerAcceptStopsAtMajority(t *testing.T) {
	tc := newTestCluster(t, "A", "B", "C", "D", "E")
	p := tc.proposer("A")
	ctx := context.Background()
	b := Ballot(1, 1)
	p.prepare(ctx, "g", 0, b, true)
	acc := p.Accept(ctx, "g", 0, b, []byte("v"))
	if !acc.Quorum() {
		t.Fatalf("accept: %+v", acc)
	}
	if acc.Acks < Majority(5) {
		t.Fatalf("acks = %d, below majority", acc.Acks)
	}
}

// TestProposerSafetyUnderContention runs many concurrent proposers on one
// position and verifies at most one value is chosen: every proposer that
// believes it decided must have decided the same value.
func TestProposerSafetyUnderContention(t *testing.T) {
	tc := newTestCluster(t, "A", "B", "C")
	ctx := context.Background()

	const proposers = 8
	var mu sync.Mutex
	decided := map[string]bool{}
	var wg sync.WaitGroup
	for i := 0; i < proposers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			dc := []string{"A", "B", "C"}[i%3]
			p := tc.proposer(dc)
			p.Timeout = 300 * time.Millisecond
			myVal := []byte{byte('a' + i)}
			rng := rand.New(rand.NewSource(int64(i + 1)))
			val, _, err := p.Decide(ctx, Instance{
				Group: "g", ID: i + 1, WaitAll: true, Rounds: 20,
				Choose: func(prep PrepareOutcome) ([]byte, error) {
					// Paxos rule: adopt the highest-ballot vote if any exist.
					best := Vote{Ballot: NilBallot}
					for _, v := range prep.Votes {
						if !v.IsNull() && v.Ballot > best.Ballot {
							best = v
						}
					}
					if best.IsNull() {
						return myVal, nil
					}
					return best.Value, nil
				},
				// Each proposer pauses at random, from a source of its own.
				Pause: func(ctx context.Context, attempt int) error {
					time.Sleep(time.Duration(rng.Intn(1000<<min(attempt, 3))) * time.Microsecond)
					return ctx.Err()
				},
			})
			if err == nil {
				mu.Lock()
				decided[string(val)] = true
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	if len(decided) > 1 {
		t.Fatalf("multiple values decided: %v", decided)
	}
	if len(decided) == 0 {
		t.Fatal("no proposer decided despite live majority")
	}
}

// TestAcceptOutcomeChosenAt: the ballot a decision goes out under is the
// round's own only while every ack was a vote; one ack from a row already
// decided — which may have promised higher before it was — makes it
// DecidedBallot, and leaves MaxSeen (what NextBallot is fed) alone.
func TestAcceptOutcomeChosenAt(t *testing.T) {
	for _, unanimous := range []bool{false, true} {
		tc := newTestCluster(t, "A", "B", "C")
		p := tc.proposer("A")
		accept := p.Accept
		if unanimous {
			accept = p.AcceptUnanimous
		}
		ctx := context.Background()
		if out := accept(ctx, "g", 1, FastBallot, []byte("Y")); !out.Quorum() || out.ChosenAt != FastBallot {
			t.Fatalf("unanimous=%t: a round of votes = %+v, want ChosenAt = its ballot", unanimous, out)
		}
		// Two of three, so that a round that stops at a majority has counted one.
		for _, dc := range []string{"B", "C"} {
			if err := tc.acceptors[dc].store.ApplyBatch([]kvstore.BatchWrite{{Key: StateKey("g", 2), Value: DecidedRow("Y"), Replace: true}}); err != nil {
				t.Fatal(err)
			}
		}
		out := accept(ctx, "g", 2, FastBallot, []byte("Y"))
		if !out.Quorum() || out.ChosenAt != DecidedBallot || out.MaxSeen != FastBallot {
			t.Fatalf("unanimous=%t: a round acked by a decided row = %+v, want ChosenAt = DecidedBallot, MaxSeen = the ballot", unanimous, out)
		}
	}
}
