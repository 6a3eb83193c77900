package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"paxoscp/internal/paxos"
	"paxoscp/internal/stats"
)

// newRingClient builds a 3-DC service ring plus a client homed at dc.
func newRingClient(t *testing.T, dc string, cfg Config) (*Client, map[string]*Service) {
	t.Helper()
	services, sim := newServiceRing(t, "A", "B", "C")
	ep := sim.Endpoint(dc+"", nil) // replaced below; endpoints are per-DC
	_ = ep
	// Reuse the service ring's endpoints: clients share the DC endpoint.
	cfg.Timeout = 200 * time.Millisecond
	tr := sim.Endpoint(dc, services[dc].Handler())
	return NewClient(1, dc, tr, cfg), services
}

func TestClientIDValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range client id accepted")
		}
	}()
	NewClient(-1, "A", nil, Config{})
}

func TestTxLifecycleErrors(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if _, _, err := tx.Read(ctx, "k"); !errors.Is(err, errTxDone) {
		t.Fatalf("Read after Abort: %v", err)
	}
	if err := tx.Write("k", "v"); !errors.Is(err, errTxDone) {
		t.Fatalf("Write after Abort: %v", err)
	}
	if _, err := tx.Commit(ctx); !errors.Is(err, errTxDone) {
		t.Fatalf("Commit after Abort: %v", err)
	}
	// Double commit.
	tx2, _ := cl.Begin(ctx, "g")
	tx2.Write("k", "v")
	if _, err := tx2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(ctx); !errors.Is(err, errTxDone) {
		t.Fatalf("second Commit: %v", err)
	}
}

func TestTxRepeatedReadStable(t *testing.T) {
	cl, services := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()

	// Seed k=1 at position 1.
	seedLog(t, services, []string{"A", "B", "C"}, "g", 1)
	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := tx.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	// Another entry commits behind the transaction's back.
	b := entryBytes("later", 1, map[string]string{"k": "changed"})
	for _, dc := range []string{"A", "B", "C"} {
		services[dc].ApplyDecided("g", 2, b)
	}
	// The transaction re-reads the same value (A2: one read position).
	v2, _, err := tx.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 || v1 != "v1" {
		t.Fatalf("repeated read changed: %q then %q", v1, v2)
	}
	tx.Abort()
}

func TestBeginAtSnapshotRead(t *testing.T) {
	cl, services := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	seedLog(t, services, []string{"A", "B", "C"}, "g", 5)

	// Snapshot read at position 2 sees v2 even though v5 is current.
	tx, err := cl.BeginAt(ctx, "g", 2)
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := tx.Read(ctx, "k")
	if err != nil || !found || v != "v2" {
		t.Fatalf("snapshot read@2 = (%q,%v,%v), want v2", v, found, err)
	}
	res, err := tx.Commit(ctx) // read-only: commits trivially
	if err != nil || res.Status != stats.Committed {
		t.Fatalf("read-only snapshot commit: %+v %v", res, err)
	}

	if _, err := cl.BeginAt(ctx, "g", -3); err == nil {
		t.Fatal("negative position accepted")
	}
}

// seedViaTxns commits n sequential transactions (each writing "k" and a
// unique "uN" key) through the real protocol, so acceptor state, log, and
// data rows are all consistent.
func seedViaTxns(t *testing.T, cl *Client, group string, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 1; i <= n; i++ {
		tx, err := cl.Begin(ctx, group)
		if err != nil {
			t.Fatal(err)
		}
		tx.Write("k", fmt.Sprintf("v%d", i))
		tx.Write(fmt.Sprintf("u%d", i), "once")
		res, err := tx.Commit(ctx)
		if err != nil || res.Status != stats.Committed || res.Pos != int64(i) {
			t.Fatalf("seed txn %d: %+v %v", i, res, err)
		}
	}
}

func TestBeginAtStaleWriterLosesUnderBasic(t *testing.T) {
	cl, services := newRingClient(t, "A", Config{Seed: 1, Protocol: Basic})
	ctx := context.Background()
	seedViaTxns(t, cl, "g", 3)

	// A writer reading at stale position 1 tries to commit to position 2,
	// which is already decided: it must abort, never overwrite.
	tx, err := cl.BeginAt(ctx, "g", 1)
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("other", "value")
	res, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != stats.Aborted {
		t.Fatalf("stale writer result = %+v, want abort", res)
	}
	entry, _ := services["A"].DecidedEntry("g", 2)
	if entry.Contains(tx.ID()) {
		t.Fatalf("position 2 rewritten by stale writer: %v", entry)
	}
}

func TestBeginAtStaleWriterPromotesUnderCP(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1, Protocol: CP})
	ctx := context.Background()
	seedViaTxns(t, cl, "g", 3)

	// The stale writer does not read anything the interim entries wrote
	// (they write "k" and "uN"; it reads nothing), so CP promotes it to
	// position 4.
	tx, err := cl.BeginAt(ctx, "g", 1)
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("fresh-key", "value")
	res, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != stats.Committed || res.Pos != 4 {
		t.Fatalf("stale CP writer = %+v, want commit at 4", res)
	}
	if res.Round < 1 {
		t.Fatalf("expected promotions, got round %d", res.Round)
	}
}

func TestBeginAtStaleReaderConflictAborts(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1, Protocol: CP})
	ctx := context.Background()
	seedViaTxns(t, cl, "g", 3)

	// This one READS "k", which every interim entry wrote: CP must abort
	// it rather than promote.
	tx, err := cl.BeginAt(ctx, "g", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := tx.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	tx.Write("out", "value")
	res, err := tx.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != stats.Aborted {
		t.Fatalf("conflicting stale transaction = %+v, want abort", res)
	}
}

func TestCollectorReceivesSamples(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1, Protocol: CP})
	ctx := context.Background()
	col := &stats.Collector{}
	cl.Collector = col
	for i := 0; i < 3; i++ {
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(fmt.Sprintf("k%d", i), "v")
		if _, err := tx.Commit(ctx); err != nil {
			t.Fatal(err)
		}
	}
	sum := col.Summarize()
	if sum.Commits != 3 || sum.Total != 3 {
		t.Fatalf("collector summary: %s", sum.String())
	}
	if sum.AllCommit.Mean <= 0 {
		t.Fatal("latency not recorded")
	}
}

func TestOnCommitCallback(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	var got []CommittedTxn
	cl.OnCommit = func(pos int64, txn CommittedTxn) { got = append(got, txn) }

	tx, _ := cl.Begin(ctx, "g")
	tx.Read(ctx, "r")
	tx.Write("w", "1")
	if _, err := tx.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("OnCommit fired %d times", len(got))
	}
	c := got[0]
	if c.Pos != 1 || c.Writes["w"] != "1" {
		t.Fatalf("callback payload: %+v", c)
	}
	if _, ok := c.Reads["r"]; !ok {
		t.Fatalf("read set missing: %+v", c)
	}
	// Read-only transactions fire too (they serialize at their read pos).
	tx2, _ := cl.Begin(ctx, "g")
	tx2.Read(ctx, "w")
	if _, err := tx2.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(got[1].Writes) != 0 {
		t.Fatalf("read-only commit not observed: %+v", got)
	}
}

func TestSendPreferLocalFallsBack(t *testing.T) {
	services, sim := newServiceRing(t, "A", "B", "C")
	tr := sim.Endpoint("A", services["A"].Handler())
	cl := NewClient(2, "A", tr, Config{Seed: 1, Timeout: 50 * time.Millisecond})
	ctx := context.Background()

	// With A down... a down DC blocks its own clients in the sim, so
	// emulate "local service broken" by partitioning A from nothing and
	// checking the remote order instead: B and C both down leaves only A.
	sim.SetDown("B", true)
	sim.SetDown("C", true)
	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatalf("begin with only local up: %v", err)
	}
	if _, _, err := tx.Read(ctx, "k"); err != nil {
		t.Fatalf("read with only local up: %v", err)
	}
	// All down: Begin itself is messageless under lazy read positions, so
	// unavailability surfaces at the transaction's first service contact —
	// the first read — with a useful error.
	sim.SetDown("A", true)
	tx2, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatalf("lazy begin must not message: %v", err)
	}
	if _, _, err := tx2.Read(ctx, "k"); err == nil {
		t.Fatal("read succeeded with every service down")
	}
}

func TestUnknownProtocolDefaultsToBasic(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1, Protocol: Protocol(99)})
	ctx := context.Background()
	tx, _ := cl.Begin(ctx, "g")
	tx.Write("k", "v")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed {
		t.Fatalf("fallback protocol commit: %+v %v", res, err)
	}
}

func TestProtocolStrings(t *testing.T) {
	if Basic.String() != "paxos" || CP.String() != "paxos-cp" || Master.String() != "master" {
		t.Fatal("protocol names changed")
	}
	if Protocol(42).String() == "" {
		t.Fatal("unknown protocol renders empty")
	}
}

// TestServiceIdentitiesAboveClients: a service proposes under an identity no
// client may take — the top block of the identity space — and the services of
// one topology under distinct ones, whatever order Peers lists them in.
func TestServiceIdentitiesAboveClients(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("NewClient took a service's identity")
			}
		}()
		NewClient(paxos.MaxClients-2, "A", nil, Config{})
	}()
	NewClient(paxos.MaxClients-serviceIDs-1, "A", nil, Config{}) // the highest client identity
	services, _ := newServiceRing(t, "A", "B", "C")
	ids := map[int]string{}
	for dc, s := range services {
		if s.id < paxos.MaxClients-serviceIDs || s.id >= paxos.MaxClients {
			t.Errorf("%s proposes as %d, inside the client range", dc, s.id)
		}
		if other, dup := ids[s.id]; dup {
			t.Errorf("%s and %s both propose as %d", dc, other, s.id)
		}
		ids[s.id] = dc
	}
	if got := proposerID("B", []string{"C", "A", "B"}); got != services["B"].id {
		t.Errorf("B proposes as %d with its peers listed C, A, B and as %d listed A, B, C", got, services["B"].id)
	}
}
