package core

import (
	"context"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

// The tests of the client fast path at a majority and of apply as a
// notification (DESIGN.md §11 "Who may use ballot 0", §3 "When a commit is
// acknowledged").

// sentReq is what sentRecorder keeps of a request.
type sentReq struct {
	Kind   network.Kind
	Pos    int64
	Ballot int64
}

// sentRecorder keeps every request a transport sends, in order.
type sentRecorder struct {
	network.Transport
	mu   sync.Mutex
	sent []sentReq
}

func (r *sentRecorder) Send(ctx context.Context, to string, req network.Message) (network.Message, error) {
	r.record(req)
	return r.Transport.Send(ctx, to, req)
}

func (r *sentRecorder) Go(to string, req network.Message, done func(network.Message, error)) network.Call {
	r.record(req)
	return r.Transport.Go(to, req, done)
}

func (r *sentRecorder) record(req network.Message) {
	r.mu.Lock()
	r.sent = append(r.sent, sentReq{req.Kind, req.Pos, req.Ballot})
	r.mu.Unlock()
}

// paxosRounds returns the prepare and accept requests sent since the last
// call, one per round (a round sends the same request to every datacenter).
func (r *sentRecorder) paxosRounds() []sentReq {
	r.mu.Lock()
	defer r.mu.Unlock()
	var rounds []sentReq
	for _, m := range r.sent {
		if m.Kind != network.KindPrepare && m.Kind != network.KindAccept {
			continue
		}
		if n := len(rounds); n == 0 || rounds[n-1] != m {
			rounds = append(rounds, m)
		}
	}
	r.sent = nil
	return rounds
}

// applyGate sits in front of a replica's handler and holds every apply
// message until it is released — on a goroutine of its own, since a handler
// that blocks stalls its endpoint's read loop.
type applyGate struct {
	open chan struct{}
	once sync.Once
}

func newApplyGate() *applyGate { return &applyGate{open: make(chan struct{})} }

func (g *applyGate) release() { g.once.Do(func() { close(g.open) }) }

func (g *applyGate) wrap(h network.AsyncHandler) network.AsyncHandler {
	return func(from string, req network.Message, reply func(network.Message)) {
		if req.Kind == network.KindApply {
			go func() {
				<-g.open
				h(from, req, reply)
			}()
			return
		}
		h(from, req, reply)
	}
}

// gatedRing is newServiceRing with each service's own sends recorded and, where
// gates names the datacenter, its applies held.
func gatedRing(t *testing.T, gates map[string]*applyGate) (map[string]*Service, map[string]*sentRecorder, *network.Sim) {
	t.Helper()
	dcs := []string{"A", "B", "C"}
	sim := network.NewSim(network.NewTopology(dcs...), network.SimConfig{Seed: 3})
	t.Cleanup(sim.Close)
	services := make(map[string]*Service, len(dcs))
	recs := make(map[string]*sentRecorder, len(dcs))
	for _, dc := range dcs {
		h := func(from string, req network.Message, reply func(network.Message)) {
			services[dc].AsyncHandler()(from, req, reply)
		}
		if g := gates[dc]; g != nil {
			h = g.wrap(h)
			t.Cleanup(g.release)
		}
		recs[dc] = &sentRecorder{Transport: sim.EndpointAsync(dc, h)}
		services[dc] = NewService(dc, kvstore.New(), recs[dc], WithServiceTimeout(200*time.Millisecond))
		t.Cleanup(services[dc].Close)
	}
	return services, recs, sim
}

// cpClient returns a CP client homed at dc that shares the datacenter's
// endpoint (and so leaves its handler as the ring wired it).
func cpClient(id int, tr network.Transport, timeout time.Duration) *Client {
	return NewClient(id, tr.Local(), tr, Config{Protocol: CP, Seed: int64(id), Timeout: timeout})
}

func waitApplied(t *testing.T, services map[string]*Service, group string, pos int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for dc, s := range services {
		if err := s.log(group).WaitApplied(ctx, pos); err != nil {
			t.Fatalf("%s never applied %s/%d: %v", dc, group, pos, err)
		}
	}
}

func claimLeader(t *testing.T, s *Service, group string, pos int64, token string) network.Message {
	return ask(t, s, "X", network.Message{Kind: network.KindClaimLeader, Group: group, Pos: pos, Value: token})
}

// TestCPLeaderCommitMessages pins what a steady-state CP commit costs when the
// client sits in the position leader's datacenter: one claim, one accept
// round at the fast ballot, one apply notification, the transaction's read —
// and no prepare. Counts only; TestMasterCommitDatagrams is the master path's.
func TestCPLeaderCommitMessages(t *testing.T) {
	services, recs, sim := gatedRing(t, nil)
	cl := cpClient(1, recs["A"].Transport, 200*time.Millisecond)
	ctx := context.Background()
	commit := func(val string) int64 {
		t.Helper()
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tx.Read(ctx, "k"); err != nil {
			t.Fatal(err)
		}
		tx.Write("k", val)
		res, err := tx.Commit(ctx)
		if err != nil || res.Status != stats.Committed || res.Round != 0 {
			t.Fatalf("commit: %+v %v", res, err)
		}
		return res.Pos
	}
	waitApplied(t, services, "g", commit("warm")) // A won position 1: it leads position 2
	sim.ResetCounters()
	waitApplied(t, services, "g", commit("measured"))

	sent := sim.Counters().Sent
	for kind, want := range map[network.Kind]int64{
		network.KindClaimLeader: 1,
		network.KindAccept:      3,
		network.KindApply:       3,
		network.KindReadMulti:   1,
		network.KindPrepare:     0,
	} {
		if sent[kind] != want {
			t.Errorf("%d %s requests, want %d (all sent: %v)", sent[kind], kind, want, sent)
		}
	}
}

// TestNoLeaderGrantOnceGroupHasMaster is R-a: once a mastership claim has
// applied, no replica grants the fast ballot for any later position — a
// master may use ballot 0 there — and a replica that has not contiguously
// applied pos-1 grants nothing either, whatever it knows to be decided.
func TestNoLeaderGrantOnceGroupHasMaster(t *testing.T) {
	services, recs, sim := gatedRing(t, nil)
	ctx := context.Background()

	// Before any master: A, the first position's leader, grants it.
	if resp := claimLeader(t, services["A"], "g", 1, "t0"); !resp.OK {
		t.Fatalf("claim of g/1 at its leader before any master: %+v", resp)
	}
	cl := cpClient(1, recs["B"].Transport, 200*time.Millisecond)
	pos := commitWrites(t, cl, "g", map[string]string{"k": "v"}) // B leads pos+1
	waitApplied(t, services, "g", pos)
	if _, err := services["C"].ClaimMastership(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	// A transaction from B through the master: B's datacenter won the
	// position, so B is the next one's leader under §4.1's rule.
	tip := commitWrites(t, masterClient(t, sim, services, "B", "C"), "g", map[string]string{"k": "m"})
	waitApplied(t, services, "g", tip)
	if leader := services["B"].Leader("g", tip+1); leader != "B" {
		t.Fatalf("setup: leader of g/%d = %q, want B", tip+1, leader)
	}
	for dc, s := range services {
		for p := tip + 1; p <= tip+3; p++ {
			if resp := claimLeader(t, s, "g", p, "t1"); resp.OK {
				t.Errorf("%s granted g/%d in a group with a master", dc, p)
			}
		}
	}

	// A replica that holds position 2's entry — won by its own datacenter,
	// so it leads position 3 — above a gap at position 1.
	b := services["B"]
	won := wal.Encode(wal.NewEntry(wal.Txn{ID: "B-9-1", Origin: "B", ReadPos: 1, Writes: map[string]string{"x": "1"}}))
	if err := b.ApplyDecided("h", 2, won); err != nil {
		t.Fatal(err)
	}
	if leader, applied := b.Leader("h", 3), b.LastApplied("h"); leader != "B" || applied != 0 {
		t.Fatalf("setup: B sees leader %q of h/3 with %d applied, want itself and 0", leader, applied)
	}
	if resp := claimLeader(t, b, "h", 3, "t2"); resp.OK {
		t.Error("B granted h/3 without having applied h/2")
	}
}

// TestFirstMastershipClaimOpensWithPrepare is R-b: a service that knows of no
// mastership claim in the group proposes nothing at ballot 0 — a client may
// hold a grant for the position — so the group's first claim opens with a
// prepare round. Above a claim it has applied no client holds a grant, and
// the holder's renewal opens with the fast round as before.
func TestFirstMastershipClaimOpensWithPrepare(t *testing.T) {
	services, recs, _ := gatedRing(t, nil)
	ctx := context.Background()
	if _, err := services["A"].ClaimMastership(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	rounds := recs["A"].paxosRounds()
	if len(rounds) == 0 || rounds[0].Kind != network.KindPrepare {
		t.Fatalf("first claim's rounds = %v, want a prepare first", rounds)
	}
	for _, r := range rounds {
		if r.Kind == network.KindAccept && r.Ballot == paxos.FastBallot {
			t.Errorf("first claim sent accept(0) for position %d", r.Pos)
		}
	}
	if _, err := services["A"].RenewLease(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	rounds = recs["A"].paxosRounds()
	if len(rounds) != 1 || rounds[0].Kind != network.KindAccept || rounds[0].Ballot != paxos.FastBallot {
		t.Fatalf("renewal's rounds = %v, want one accept(0)", rounds)
	}
}

// TestCommitAnsweredBeforeRemoteApplies: apply is a notification. With every
// apply held at the two remote replicas, a commit returns on its own
// datacenter's reply and the client's next transaction reads the write
// there; once released, the three logs are equal.
func TestCommitAnsweredBeforeRemoteApplies(t *testing.T) {
	gates := map[string]*applyGate{"B": newApplyGate(), "C": newApplyGate()}
	services, recs, _ := gatedRing(t, gates)
	// A timeout far above the bound below: a commit that waited for a held
	// apply would sit it out.
	cl := cpClient(1, recs["A"].Transport, 3*time.Second)
	ctx := context.Background()

	start := time.Now()
	commitWrites(t, cl, "g", map[string]string{"k": "v1"})
	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if v, found, err := tx.Read(ctx, "k"); err != nil || !found || v != "v1" {
		t.Fatalf("read after commit = %q found=%v err=%v, want the client's own write", v, found, err)
	}
	tx.Write("k", "v2")
	if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed || res.Pos != 2 {
		t.Fatalf("second commit: %+v %v", res, err)
	}
	if took := time.Since(start); took > time.Second {
		t.Fatalf("two commits took %v with the remote applies held: they waited for them", took)
	}
	for dc, g := range gates {
		if got := services[dc].LastApplied("g"); got != 0 {
			t.Errorf("%s applied %d positions through a closed gate", dc, got)
		}
		g.release()
	}
	waitApplied(t, services, "g", 2)
	want := services["A"].LogSnapshot("g")
	for _, dc := range []string{"B", "C"} {
		if got := services[dc].LogSnapshot("g"); !reflect.DeepEqual(got, want) {
			t.Errorf("%s log = %v, want A's %v", dc, got, want)
		}
	}
}

// lostApplies loses every apply message sent to another datacenter: the send
// waits out its context, and the call is never answered, as a request into a
// dead link is.
type lostApplies struct{ network.Transport }

func (l lostApplies) Send(ctx context.Context, to string, req network.Message) (network.Message, error) {
	if l.lost(to, req) {
		<-ctx.Done()
		return network.Message{}, network.ErrTimeout
	}
	return l.Transport.Send(ctx, to, req)
}

func (l lostApplies) Go(to string, req network.Message, done func(network.Message, error)) network.Call {
	if l.lost(to, req) {
		return network.Call{}
	}
	return l.Transport.Go(to, req, done)
}

func (l lostApplies) lost(to string, req network.Message) bool {
	return req.Kind == network.KindApply && to != l.Local()
}

// TestLostRemoteAppliesAreRecovered: the decision does not rest on the
// notification. With both remote applies of a commit lost, the votes of the
// majority still hold the value: a quiet follower learns it by catch-up; a
// competitor at another datacenter finds the votes, drives the same value and
// is then promoted or aborted by what it read; and the notification's senders
// are gone one message timeout after the commit returned.
func TestLostRemoteAppliesAreRecovered(t *testing.T) {
	const timeout = 200 * time.Millisecond
	services, recs, _ := gatedRing(t, nil)
	ctx := context.Background()
	warm := cpClient(1, recs["A"].Transport, timeout)
	lossy := cpClient(2, lostApplies{recs["A"].Transport}, timeout)

	// lose commits k=v1 at position 2 of group, acknowledged at A and told to
	// nobody else, and returns the entry.
	lose := func(group string) wal.Entry {
		t.Helper()
		waitApplied(t, services, group, commitWrites(t, warm, group, map[string]string{"k": "v0"}))
		if pos := commitWrites(t, lossy, group, map[string]string{"k": "v1"}); pos != 2 {
			t.Fatalf("lossy commit at %s/%d, want 2", group, pos)
		}
		for _, dc := range []string{"B", "C"} {
			if got := services[dc].LastApplied(group); got != 1 {
				t.Fatalf("%s applied %s up to %d; the test needs position 2's notification lost", dc, group, got)
			}
		}
		entry, _ := services["A"].log(group).Entry(2)
		return entry
	}

	// The goroutine count settles back within one message timeout (and a
	// grace window for the scheduler) of the commit's return.
	lose("warmup") // starts what a first commit starts lazily
	before := runtime.NumGoroutine()
	want := lose("g")
	returned := time.Now()
	for runtime.NumGoroutine() > before+2 {
		if time.Since(returned) > timeout+time.Second {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines of the round outlive its message timeout: %d before, %d now\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A quiet follower: nothing but catch-up tells C.
	if err := services["C"].CatchUp(ctx, "g", 2); err != nil {
		t.Fatal(err)
	}
	if got, ok := services["C"].log("g").Entry(2); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("C caught up to %v ok=%v, want %v", got, ok, want)
	}

	// Competitors at B, in a group where A alone knows the decision: both
	// begin at position 1 and run position 2's instance. One read k.
	want = lose("h")
	reader, writer := cpClient(3, recs["B"].Transport, timeout), cpClient(4, recs["B"].Transport, timeout)
	rtx, _ := reader.Begin(ctx, "h")
	if v, _, err := rtx.Read(ctx, "k"); err != nil || v != "v0" {
		t.Fatalf("B served k=%q err=%v, want the value below the lost notification", v, err)
	}
	rtx.Write("other", "r")
	wtx, _ := writer.Begin(ctx, "h")
	if _, _, err := wtx.Read(ctx, "unrelated"); err != nil {
		t.Fatal(err)
	}
	wtx.Write("other", "w")
	if res, err := rtx.Commit(ctx); err != nil || res.Status != stats.Aborted {
		t.Errorf("competitor that read k: %+v %v, want aborted", res, err)
	}
	if res, err := wtx.Commit(ctx); err != nil || res.Status != stats.Committed || res.Pos != 3 || res.Round != 1 {
		t.Errorf("competitor that read nothing position 2 wrote: %+v %v, want promoted to position 3", res, err)
	}
	waitApplied(t, services, "h", 3)
	for _, dc := range []string{"B", "C"} {
		if got, ok := services[dc].log("h").Entry(2); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s holds %v ok=%v at h/2, want the entry A acknowledged, %v", dc, got, ok, want)
		}
	}
}
