package core

import (
	"context"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

// leaseRing wires three services with a short master lease so takeover tests
// do not wait out the default four-timeout lease.
func leaseRing(t *testing.T, lease time.Duration, extra ...ServiceOption) (map[string]*Service, *network.Sim) {
	t.Helper()
	topo := network.NewTopology("A", "B", "C")
	sim := network.NewSim(topo, network.SimConfig{Seed: 3})
	t.Cleanup(sim.Close)
	services := make(map[string]*Service, 3)
	for _, dc := range []string{"A", "B", "C"} {
		dc := dc
		ep := sim.Endpoint(dc, func(from string, req network.Message) network.Message {
			return services[dc].Handler()(from, req)
		})
		opts := append([]ServiceOption{
			WithServiceTimeout(200 * time.Millisecond), WithLeaseDuration(lease),
		}, extra...)
		services[dc] = NewService(dc, kvstore.New(), ep, opts...)
		t.Cleanup(services[dc].Close)
	}
	return services, sim
}

// masterClient returns a Master-protocol client homed at dc submitting to
// masterDC.
func masterClient(t *testing.T, sim *network.Sim, services map[string]*Service, dc, masterDC string) *Client {
	t.Helper()
	tr := sim.Endpoint(dc, services[dc].Handler())
	return NewClient(1, dc, tr, Config{
		Protocol: Master, MasterDC: masterDC, Seed: 1, Timeout: 200 * time.Millisecond,
	})
}

// TestClaimMastershipEstablishesEpoch: an explicit claim commits an epoch-1
// claim entry through the log, is idempotent for the holder, and renews.
func TestClaimMastershipEstablishesEpoch(t *testing.T) {
	services, _ := leaseRing(t, 300*time.Millisecond)
	ctx := context.Background()
	s := services["A"]

	epoch, err := s.ClaimMastership(ctx, "g")
	if err != nil || epoch != 1 {
		t.Fatalf("claim = %d %v, want epoch 1", epoch, err)
	}
	if st, valid := s.Mastership("g"); st.Epoch != 1 || st.Master != "A" || st.Pos != 1 || !valid {
		t.Fatalf("mastership after claim = %+v valid=%v", st, valid)
	}
	// Re-claiming while holding is a no-op returning the held epoch.
	if epoch, err = s.ClaimMastership(ctx, "g"); err != nil || epoch != 1 {
		t.Fatalf("re-claim = %d %v", epoch, err)
	}
	// Explicit renewal commits a same-epoch claim entry.
	if epoch, err = s.RenewLease(ctx, "g"); err != nil || epoch != 1 {
		t.Fatalf("renew = %d %v", epoch, err)
	}
	if got := s.LastApplied("g"); got != 2 {
		t.Fatalf("log after claim+renew covers %d positions, want 2", got)
	}
	// Status surfaces the epoch state.
	st := s.Status("g")
	if st.Epoch != 1 || st.Master != "A" || !st.LeaseValid {
		t.Fatalf("status = %+v", st)
	}
}

// TestSubmitAutoClaimsAndStampsEpoch: the first submit to a fresh master
// lazily claims epoch 1; the transaction entry is stamped with it and the
// commit result reports it.
func TestSubmitAutoClaimsAndStampsEpoch(t *testing.T) {
	services, sim := leaseRing(t, 300*time.Millisecond)
	cl := masterClient(t, sim, services, "B", "A")
	ctx := context.Background()

	tx, _ := cl.Begin(ctx, "g")
	tx.Write("k", "v")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed {
		t.Fatalf("commit: %+v %v", res, err)
	}
	if res.Pos != 2 || res.Epoch != 1 {
		t.Fatalf("commit pos/epoch = %d/%d, want 2/1 (claim at 1)", res.Pos, res.Epoch)
	}
	claim, ok := services["A"].DecidedEntry("g", 1)
	if !ok || !claim.IsClaim() || claim.Epoch != 1 || claim.Master != "A" {
		t.Fatalf("position 1 = %v ok=%v, want epoch-1 claim by A", claim, ok)
	}
	entry, ok := services["A"].DecidedEntry("g", 2)
	if !ok || entry.Epoch != 1 || !entry.Contains(tx.ID()) {
		t.Fatalf("position 2 = %v ok=%v, want epoch-1 stamped txn", entry, ok)
	}
}

// TestDeposedMasterRefusesWithHintAndClientFollows: after a takeover, the
// old master refuses submits with VerdictNotMaster and the prevailing holder;
// the client follows the hint and commits at the new master under the new
// epoch — the retry-to-new-master path.
func TestDeposedMasterRefusesWithHintAndClientFollows(t *testing.T) {
	services, sim := leaseRing(t, 150*time.Millisecond)
	ctx := context.Background()
	if _, err := services["A"].ClaimMastership(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	// B takes over once A's lease falls silent (A commits nothing).
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	epoch, err := services["B"].ClaimMastership(cctx, "g")
	if err != nil || epoch != 2 {
		t.Fatalf("takeover = %d %v, want epoch 2", epoch, err)
	}
	// Once A has applied B's claim entry it knows it is deposed. The claim
	// returned at B and a majority, which need not include A, so A is caught
	// up to B's watermark first.
	if err := services["A"].CatchUp(cctx, "g", services["B"].LastApplied("g")); err != nil {
		t.Fatal(err)
	}
	if st, _ := services["A"].Mastership("g"); st.Master != "B" || st.Epoch != 2 {
		t.Fatalf("A's view after takeover = %+v", st)
	}

	// A client still pointed at the old master is redirected and commits
	// under epoch 2.
	cl := masterClient(t, sim, services, "C", "A")
	tx, _ := cl.Begin(ctx, "g")
	tx.Write("k", "v")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed || res.Epoch != 2 {
		t.Fatalf("redirected commit: %+v %v", res, err)
	}
}

// TestEpochFencingDisabledReproducesOldBehavior: with fencing off (test-only
// option) the master path neither claims nor stamps — the first transaction
// commits at position 1 with epoch 0, exactly the pre-fencing layout.
func TestEpochFencingDisabledReproducesOldBehavior(t *testing.T) {
	services, sim := leaseRing(t, 0, WithEpochFencingDisabled())
	cl := masterClient(t, sim, services, "B", "A")
	ctx := context.Background()

	tx, _ := cl.Begin(ctx, "g")
	tx.Write("k", "v")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed || res.Pos != 1 || res.Epoch != 0 {
		t.Fatalf("fencing-off commit: %+v %v", res, err)
	}
	entry, ok := services["A"].DecidedEntry("g", 1)
	if !ok || entry.Epoch != 0 || entry.IsClaim() {
		t.Fatalf("fencing-off entry = %v ok=%v, want unstamped txn entry", entry, ok)
	}
	if st, _ := services["A"].Mastership("g"); st.Epoch != 0 {
		t.Fatalf("fencing-off epoch state = %+v", st)
	}
}

// TestDeposedMasterInFlightDrainsAsFailure: a master whose in-flight entry
// is beaten by a takeover claim drains it with a definitive failure — never
// a commit, never promotion to a later (fenced) position.
func TestDeposedMasterInFlightDrainsAsFailure(t *testing.T) {
	services, _ := leaseRing(t, 150*time.Millisecond)
	ctx := context.Background()
	s := services["A"]
	if _, err := s.ClaimMastership(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	// B takes over; A's pipeline has not noticed yet (no traffic).
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if _, err := services["B"].ClaimMastership(cctx, "g"); err != nil {
		t.Fatal(err)
	}

	// Drive A's submit path directly: the pipeline sees A's own stale
	// mastership view only if it skips the lease check — but place() always
	// re-checks, so the submission must be refused with a hint, and the
	// transaction must not appear anywhere in the log.
	resp := s.Handler()("C", network.Message{
		Kind: network.KindSubmit, Group: "g",
		Payload: wal.Encode(wal.NewEntry(wal.Txn{ID: "stale-1", Origin: "C", Writes: map[string]string{"k": "v"}})),
	})
	if resp.OK {
		t.Fatalf("deposed master accepted a submit: %+v", resp)
	}
	if resp.Verdict != network.VerdictNotMaster || resp.Value != "B" {
		t.Fatalf("refusal = %q hint %q, want %q hint B", resp.Verdict, resp.Value, network.VerdictNotMaster)
	}
	for _, svc := range services {
		for pos, e := range svc.LogSnapshot("g") {
			if e.Contains("stale-1") {
				t.Fatalf("refused transaction reached the log at %s/%d", svc.DC(), pos)
			}
		}
	}
}

// TestCommitHopsOffAClosedMaster: a service that is shutting down refuses a
// submit with VerdictShutdown — nothing of it reached the log — and the client
// takes the transaction to another replica, which claims the group's next
// epoch once the closed master's lease lapses.
func TestCommitHopsOffAClosedMaster(t *testing.T) {
	services, sim := leaseRing(t, 300*time.Millisecond)
	ctx := context.Background()
	if _, err := services["A"].ClaimMastership(ctx, "g"); err != nil {
		t.Fatal(err)
	}
	services["A"].Close() // its endpoint stays registered: it answers, and refuses

	cl := masterClient(t, sim, services, "B", "A")
	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("k", "v")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed || res.Epoch < 2 {
		t.Fatalf("commit seeded at the closed master = %+v, %v; want committed under a later epoch", res, err)
	}
}
