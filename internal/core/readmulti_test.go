package core

import (
	"context"
	"testing"
	"time"

	"paxoscp/internal/network"
	"paxoscp/internal/stats"
)

// commitWrites commits a write-only transaction and returns its position.
func commitWrites(t *testing.T, cl *Client, group string, writes map[string]string) int64 {
	t.Helper()
	ctx := context.Background()
	tx, err := cl.Begin(ctx, group)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range writes {
		tx.Write(k, v)
	}
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed {
		t.Fatalf("seed commit: %+v %v", res, err)
	}
	return res.Pos
}

// TestLazyReadPositionResolvesOnFirstRead pins the lazy read-position rule:
// Begin sends nothing and leaves the position unresolved; the first read
// resolves it at the serving datacenter's applied watermark, and later reads
// stay at that snapshot.
func TestLazyReadPositionResolvesOnFirstRead(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	commitWrites(t, cl, "g", map[string]string{"k": "old"})

	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	if tx.ReadPos() != -1 {
		t.Fatalf("position resolved at Begin: %d", tx.ReadPos())
	}
	// A commit that lands between Begin and the first read IS visible: the
	// snapshot is taken at first read, not at Begin.
	commitWrites(t, cl, "g", map[string]string{"k": "new"})
	v, found, err := tx.Read(ctx, "k")
	if err != nil || !found || v != "new" {
		t.Fatalf("first read = %q %v %v, want \"new\"", v, found, err)
	}
	if tx.ReadPos() < 2 {
		t.Fatalf("read position %d not resolved to watermark", tx.ReadPos())
	}
	// After resolution the snapshot is fixed: a later commit is invisible.
	pos := tx.ReadPos()
	commitWrites(t, cl, "g", map[string]string{"k": "newer", "other": "x"})
	if v, _, err := tx.Read(ctx, "other"); err != nil || v != "" {
		t.Fatalf("post-snapshot read = %q %v, want unset", v, err)
	}
	if tx.ReadPos() != pos {
		t.Fatalf("read position moved from %d to %d", pos, tx.ReadPos())
	}
}

// TestWriteOnlyTxnResolvesAtCommit: a transaction that never reads fetches
// its read position at commit time and commits normally.
func TestWriteOnlyTxnResolvesAtCommit(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	commitWrites(t, cl, "g", map[string]string{"a": "1"})

	tx, _ := cl.Begin(ctx, "g")
	tx.Write("b", "2")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed {
		t.Fatalf("commit: %+v %v", res, err)
	}
	if res.Pos != 2 {
		t.Fatalf("committed at %d, want 2", res.Pos)
	}
}

// TestNeverReadReadOnlyTxnCommitsSilently: Begin+Commit with no operations
// must succeed without any messaging.
func TestNeverReadReadOnlyTxnCommitsSilently(t *testing.T) {
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	tr := sim.EndpointAsync("A", services["A"].AsyncHandler())
	cl := NewClient(1, "A", tr, Config{Seed: 1})
	ctx := context.Background()
	sim.ResetCounters()
	tx, _ := cl.Begin(ctx, "g")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed {
		t.Fatalf("empty commit: %+v %v", res, err)
	}
	if n := sim.Counters().TotalSent(); n != 0 {
		t.Fatalf("empty transaction sent %d messages", n)
	}
}

func TestReadMultiBasics(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	commitWrites(t, cl, "g", map[string]string{"a": "1", "b": "2"})

	tx, _ := cl.Begin(ctx, "g")
	tx.Write("c", "local") // A1: buffered write wins over the store
	vals, found, err := tx.ReadMulti(ctx, "a", "b", "c", "missing", "a")
	if err != nil {
		t.Fatal(err)
	}
	wantVals := []string{"1", "2", "local", "", "1"}
	wantFound := []bool{true, true, true, false, true}
	for i := range wantVals {
		if vals[i] != wantVals[i] || found[i] != wantFound[i] {
			t.Fatalf("slot %d = (%q,%v), want (%q,%v)", i, vals[i], found[i], wantVals[i], wantFound[i])
		}
	}
	// The batch resolved the read position and populated the read cache: a
	// repeated single read must not change values.
	if v, _, err := tx.Read(ctx, "a"); err != nil || v != "1" {
		t.Fatalf("repeat read a = %q %v", v, err)
	}
	if tx.ReadPos() != 1 {
		t.Fatalf("read position = %d, want 1", tx.ReadPos())
	}
}

// TestReadMultiOneSnapshot: every key of a ReadMulti is served at one log
// position even when a concurrent commit lands between two batches.
func TestReadMultiOneSnapshot(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	commitWrites(t, cl, "g", map[string]string{"a": "1", "b": "1"})

	tx, _ := cl.Begin(ctx, "g")
	if vals, _, err := tx.ReadMulti(ctx, "a"); err != nil || vals[0] != "1" {
		t.Fatalf("first batch: %v %v", vals, err)
	}
	commitWrites(t, cl, "g", map[string]string{"a": "2", "b": "2"})
	// The second batch reads at the position the first batch resolved.
	vals, _, err := tx.ReadMulti(ctx, "b")
	if err != nil || vals[0] != "1" {
		t.Fatalf("second batch saw %v %v, want snapshot value \"1\"", vals, err)
	}
}

// TestReadMultiAfterTxDone: finished transactions reject batched reads.
func TestReadMultiAfterTxDone(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	tx, _ := cl.Begin(ctx, "g")
	tx.Abort()
	if _, _, err := tx.ReadMulti(ctx, "a"); err != errTxDone {
		t.Fatalf("err = %v, want errTxDone", err)
	}
}

// TestReadMultiLaggardCatchUp: a multi-key read at a position ahead of the
// serving datacenter's log triggers catch-up (bounded by the service
// timeout) before the batch is served.
func TestReadMultiLaggardCatchUp(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A", "B"})
	if err := services["A"].ApplyDecided("g", 1, entryBytes("t1", 0, map[string]string{"a": "1"})); err != nil {
		t.Fatal(err)
	}
	// B never saw position 1; ask it for a batch at position 1 directly.
	resp := ask(t, services["B"], "test", network.Message{
		Kind: network.KindReadMulti, Group: "g", TS: 1, Keys: []string{"a", "z"},
	})
	if !resp.OK {
		t.Fatalf("laggard readmulti failed: %s", resp.Err)
	}
	if len(resp.Vals) != 2 || resp.Vals[0] != "1" || !resp.Founds[0] || resp.Founds[1] {
		t.Fatalf("laggard readmulti = %+v", resp)
	}
	if services["B"].LastApplied("g") != 1 {
		t.Fatalf("B did not catch up: applied=%d", services["B"].LastApplied("g"))
	}
}

// TestTxnIDAllocs guards the allocation-light transaction-ID construction
// in newTx (the fmt.Sprintf it replaced cost 4+ allocations per call).
func TestTxnIDAllocs(t *testing.T) {
	cl := NewClient(3, "V1", nil, Config{})
	if n := testing.AllocsPerRun(200, func() { _ = cl.newTx("g", 0) }); n > 5 {
		t.Fatalf("newTx allocates %v times per call", n)
	}
	// Format is unchanged from the seed: "<dc>-<clientID>-<seq>".
	cl2 := NewClient(3, "V1", nil, Config{})
	tx := cl2.newTx("g", 0)
	if tx.id != "V1-3-1" {
		t.Fatalf("transaction ID = %q, want V1-3-1", tx.id)
	}
	if next := cl2.newTx("g", 0); next.id != "V1-3-2" {
		t.Fatalf("transaction ID sequence = %q, want V1-3-2", next.id)
	}
}

// TestRepeatedMissingReadStaysMissing: a key read as missing must stay
// found=false on repeated reads (single or batched) within the transaction —
// the read cache must not launder a miss into an empty-string hit.
func TestRepeatedMissingReadStaysMissing(t *testing.T) {
	cl, _ := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	commitWrites(t, cl, "g", map[string]string{"present": "x"})

	tx, _ := cl.Begin(ctx, "g")
	if _, found, err := tx.Read(ctx, "ghost"); err != nil || found {
		t.Fatalf("first read: found=%v err=%v", found, err)
	}
	if _, found, err := tx.Read(ctx, "ghost"); err != nil || found {
		t.Fatalf("repeated read laundered the miss: found=%v err=%v", found, err)
	}
	vals, founds, err := tx.ReadMulti(ctx, "ghost", "present", "ghost2")
	if err != nil {
		t.Fatal(err)
	}
	if founds[0] || vals[0] != "" || !founds[1] || founds[2] {
		t.Fatalf("batch = %v %v", vals, founds)
	}
	// And the batch's own miss stays missing on a later single read.
	if _, found, err := tx.Read(ctx, "ghost2"); err != nil || found {
		t.Fatalf("batched miss laundered: found=%v err=%v", found, err)
	}
}

// TestReadMultiCatchUpBoundedUnderStalledPeers closes the PR 3 gap note: a
// multi-key read at a position ahead of the local log triggers catch-up, and
// that catch-up must run under the service-timeout-bounded context — with
// every peer stalled (partitioned), the handler returns a failure within a
// small multiple of the service timeout instead of hanging its goroutine on
// the unreachable peers.
func TestReadMultiCatchUpBoundedUnderStalledPeers(t *testing.T) {
	const timeout = 60 * time.Millisecond
	services, sim := newServiceRing(t, 5, []string{"A", "B", "C"}, WithServiceTimeout(timeout))

	// Stall every peer of A, then ask A to serve a multi-key read at a
	// position it does not have: the catch-up inside resolveReadTS cannot
	// make progress and must give up at the timeout.
	sim.Partition("A", "B")
	sim.Partition("A", "C")
	start := time.Now()
	resp := ask(t, services["A"], "B", network.Message{
		Kind: network.KindReadMulti, Group: "g", Keys: []string{"x", "y"}, TS: 40,
	})
	elapsed := time.Since(start)
	if resp.OK {
		t.Fatalf("read at unreachable position served: %+v", resp)
	}
	// One timeout bounds the catch-up context; allow generous scheduling
	// slack but fail long before a per-peer-timeout pile-up (the bug this
	// guards against made the handler wait one timeout per peer per missing
	// position — 2 peers x 40 positions here).
	if elapsed > 4*timeout {
		t.Fatalf("stalled-peer catch-up held the read handler %v (service timeout %v)", elapsed, timeout)
	}

	// The same read with TS=ResolvePos never needs catch-up and still
	// serves locally while the peers are stalled.
	resp = ask(t, services["A"], "B", network.Message{
		Kind: network.KindReadMulti, Group: "g", Keys: []string{"x"}, TS: network.ResolvePos,
	})
	if !resp.OK || resp.TS != 0 || len(resp.Founds) != 1 || resp.Founds[0] {
		t.Fatalf("watermark read under stalled peers = %+v", resp)
	}
}
