package core

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/wal"
)

// TestPipelineEnqueueFrontPreservesBatchOrder: a promoted batch re-enters
// the queue front as one block in arrival order. Reversing it could turn an
// intra-entry reader/writer pair (reader admitted before the writer) into a
// spurious conflict abort at the next placement.
func TestPipelineEnqueueFrontPreservesBatchOrder(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	defer s.Close()
	p := s.pipeline("g")
	// Park the dispatcher flag so enqueue does not start one: this test
	// inspects the raw queue.
	p.mu.Lock()
	p.running = true
	p.mu.Unlock()

	ps := func(id string) *pendingSubmit {
		return &pendingSubmit{txn: submitted(wal.Txn{ID: id}), deliver: func(network.Message) {}}
	}
	a, b, c := ps("a"), ps("b"), ps("c")
	if !p.enqueue(false, c) {
		t.Fatal("enqueue refused on open pipeline")
	}
	if !p.enqueue(true, a, b) {
		t.Fatal("front enqueue refused on open pipeline")
	}
	p.mu.Lock()
	var order []string
	for _, q := range p.queue {
		order = append(order, q.txn.ID)
	}
	p.mu.Unlock()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("queue order = %v, want [a b c]", order)
	}
}

// TestPipelineEnqueueRefusedAfterClose: submissions after Close fail fast
// instead of queueing forever.
func TestPipelineEnqueueRefusedAfterClose(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	p := s.pipeline("g")
	s.Close()
	ps := &pendingSubmit{txn: submitted(wal.Txn{ID: "x"}), deliver: func(network.Message) {}}
	if p.enqueue(false, ps) {
		t.Fatal("enqueue accepted on closed pipeline")
	}
	reply, ch := collectReply()
	p.SubmitAsync(submitted(wal.Txn{ID: "y"}), reply)
	if resp := awaitReply(t, ch); resp.OK || resp.Verdict != network.VerdictShutdown {
		t.Fatalf("SubmitAsync on closed pipeline = %+v, want a shutdown refusal", resp)
	}
}

// TestPipelineAdmissionControl: beyond the configured queue depth, new
// submissions are refused immediately with the retryable VerdictOverloaded
// marker and the depth hint — while promotion re-enqueues (front) bypass
// the cap, because an admitted transaction must get a pipeline verdict.
func TestPipelineAdmissionControl(t *testing.T) {
	s := NewService("A", kvstore.New(), nil, WithSubmitQueue(2))
	defer s.Close()
	p := s.pipeline("g")
	// Park the dispatcher flag so the queue is not drained under the test.
	p.mu.Lock()
	p.running = true
	p.mu.Unlock()

	for i := 0; i < 2; i++ {
		p.SubmitAsync(submitted(wal.Txn{ID: "q"}), func(network.Message) {})
	}
	var verdict network.Message
	delivered := false
	p.SubmitAsync(submitted(wal.Txn{ID: "extra"}), func(m network.Message) { verdict = m; delivered = true })
	if !delivered {
		t.Fatal("overload verdict not delivered synchronously")
	}
	if verdict.OK || verdict.Verdict != network.VerdictOverloaded {
		t.Fatalf("verdict = %+v, want VerdictOverloaded", verdict)
	}
	if verdict.TS != 2 {
		t.Fatalf("queue-depth hint = %d, want 2", verdict.TS)
	}
	// Promotion path: front enqueue is exempt from the cap.
	if !p.enqueue(true, &pendingSubmit{txn: submitted(wal.Txn{ID: "p"}), deliver: func(network.Message) {}}) {
		t.Fatal("front enqueue refused by admission cap")
	}
	p.mu.Lock()
	depth := len(p.queue)
	p.mu.Unlock()
	if depth != 3 {
		t.Fatalf("queue depth = %d, want 3 (cap exempts promotion)", depth)
	}
}

// TestPendingSubmitVerdictExactlyOnce: the first verdict wins; later ones
// (including the budget timer's) are dropped without a second deliver call.
func TestPendingSubmitVerdictExactlyOnce(t *testing.T) {
	calls := 0
	ps := &pendingSubmit{deliver: func(network.Message) { calls++ }}
	ps.reply(network.Status(true, ""))
	ps.reply(network.Status(false, "late"))
	if calls != 1 {
		t.Fatalf("deliver called %d times, want 1", calls)
	}
}

// wedgedPipeline returns group g's pipeline at A, in a three-datacenter ring
// where A holds the group's mastership and then loses both peers: every
// position A places stays in flight until its replication gives up, four
// message timeouts later.
func wedgedPipeline(t *testing.T, window int) (*pipeline, *network.Sim) {
	t.Helper()
	services, sim := newServiceRing(t, 5, []string{"A", "B", "C"},
		WithServiceTimeout(100*time.Millisecond), WithSubmitWindow(window), WithSubmitCombine(1))
	if _, err := services["A"].ClaimMastership(context.Background(), "g"); err != nil {
		t.Fatal(err)
	}
	sim.Partition("A", "B")
	sim.Partition("A", "C")
	return services["A"].pipeline("g"), sim
}

// heal ends wedgedPipeline's partition.
func heal(sim *network.Sim) {
	sim.Unpartition("A", "B")
	sim.Unpartition("A", "C")
}

// txnAfterClaim is a transaction read at the claim's position, 1, as the
// master reads it from its submit.
func txnAfterClaim(id string, reads []string, writes map[string]string) wal.TxnView {
	return submitted(wal.Txn{ID: id, Origin: "A", ReadPos: 1, ReadSet: reads, Writes: writes})
}

// submitted is t as handleSubmit reads it from a client's submit payload.
func submitted(t wal.Txn) wal.TxnView {
	v, err := wal.OneTxn(string(wal.Encode(wal.Entry{Txns: []wal.Txn{t}})))
	if err != nil {
		panic(err)
	}
	return v
}

// windowState returns the positions in flight, in order, and the queue depth.
func windowState(p *pipeline) (inflight []int64, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for pos := range p.inflight {
		inflight = append(inflight, pos)
	}
	slices.Sort(inflight)
	return inflight, len(p.queue)
}

// waitWindow polls until the pipeline has want in flight and queued waiting.
func waitWindow(t *testing.T, p *pipeline, want []int64, queued int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, q := windowState(p)
		if slices.Equal(got, want) && q == queued {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("in flight %v with %d queued, want %v with %d queued", got, q, want, queued)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineWindowCapsInFlight: with replication wedged, the pipeline
// places SubmitWindow batches at distinct positions and keeps the rest
// queued, never more in flight (invariant W1).
func TestPipelineWindowCapsInFlight(t *testing.T) {
	p, _ := wedgedPipeline(t, 2)
	for i := 0; i < 5; i++ {
		k := fmt.Sprintf("k%d", i)
		p.SubmitAsync(txnAfterClaim(k, nil, map[string]string{k: "v"}), func(network.Message) {})
	}
	waitWindow(t, p, []int64{2, 3}, 3)
	// A slot frees only when a position's replication gives up, four
	// message timeouts in; then one queued batch takes it. Sample until the
	// queue shrinks: the refilled window must not go over the limit either.
	deadline := time.Now().Add(2 * time.Second)
	for {
		got, q := windowState(p)
		if len(got) > 2 {
			t.Fatalf("in flight %v with %d queued, want at most 2 in flight", got, q)
		}
		if q < 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in flight %v with %d queued: no queued batch placed after a position resolved", got, q)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineResolutionPlacesQueuedBatch: a batch queued behind a full
// window is placed when a position resolves, with no further submit to
// start the dispatcher.
func TestPipelineResolutionPlacesQueuedBatch(t *testing.T) {
	p, sim := wedgedPipeline(t, 1)
	first, firstCh := collectReply()
	second, secondCh := collectReply()
	p.SubmitAsync(txnAfterClaim("t1", nil, map[string]string{"a": "1"}), first)
	p.SubmitAsync(txnAfterClaim("t2", nil, map[string]string{"b": "2"}), second)
	waitWindow(t, p, []int64{2}, 1)
	heal(sim)
	if resp := awaitReply(t, firstCh); !resp.OK || resp.TS != 2 {
		t.Fatalf("t1 = %+v, want committed at 2", resp)
	}
	if resp := awaitReply(t, secondCh); !resp.OK || resp.TS != 3 {
		t.Fatalf("t2 = %+v, want committed at 3", resp)
	}
}

// TestPipelineNeverReissuesFailedPosition: a position whose replication
// failed stays issued; the next batch goes above it, and the hole is learned
// before admission crosses it (invariants W1, W4).
func TestPipelineNeverReissuesFailedPosition(t *testing.T) {
	p, sim := wedgedPipeline(t, 1)
	first, firstCh := collectReply()
	p.SubmitAsync(txnAfterClaim("t1", nil, map[string]string{"a": "1"}), first)
	if resp := awaitReply(t, firstCh); resp.OK {
		t.Fatalf("t1 = %+v with no peer reachable, want a failure", resp)
	}
	waitWindow(t, p, nil, 0)
	if pos := p.nextPos(); pos != 3 {
		t.Fatalf("next position after 2 failed = %d, want 3", pos)
	}
	heal(sim)
	second, secondCh := collectReply()
	p.SubmitAsync(txnAfterClaim("t2", nil, map[string]string{"b": "2"}), second)
	if resp := awaitReply(t, secondCh); !resp.OK || resp.TS != 3 {
		t.Fatalf("t2 = %+v, want committed at 3", resp)
	}
	if e, ok := p.lg.Entry(2); !ok || e.Contains("t2") {
		t.Fatalf("position 2 = %v (decided %v), want the learned outcome of t1's attempt", e, ok)
	}
}

// TestPipelineAdmitsAgainstInFlight: a submission that read a key an
// in-flight entry writes is refused as a conflict at once, without waiting
// for that entry to resolve (invariant W2).
func TestPipelineAdmitsAgainstInFlight(t *testing.T) {
	p, _ := wedgedPipeline(t, 2)
	p.SubmitAsync(txnAfterClaim("w", nil, map[string]string{"x": "1"}), func(network.Message) {})
	waitWindow(t, p, []int64{2}, 0)
	reply, ch := collectReply()
	p.SubmitAsync(txnAfterClaim("r", []string{"x"}, map[string]string{"y": "1"}), reply)
	if resp := awaitReply(t, ch); resp.OK || resp.Verdict != network.VerdictConflict {
		t.Fatalf("reader of in-flight write = %+v, want VerdictConflict", resp)
	}
}

// TestPipelineCloseAnswersBatchWaitingForWindow: Close with the window full
// answers the batch waiting for a slot with VerdictShutdown, since nothing
// of it reached the log.
func TestPipelineCloseAnswersBatchWaitingForWindow(t *testing.T) {
	p, _ := wedgedPipeline(t, 1)
	p.SubmitAsync(txnAfterClaim("t1", nil, map[string]string{"a": "1"}), func(network.Message) {})
	reply, ch := collectReply()
	p.SubmitAsync(txnAfterClaim("t2", nil, map[string]string{"b": "2"}), reply)
	waitWindow(t, p, []int64{2}, 1)
	p.close()
	select {
	case resp := <-ch:
		if resp.OK || resp.Verdict != network.VerdictShutdown {
			t.Fatalf("queued batch at close = %+v, want VerdictShutdown", resp)
		}
	case <-time.After(100 * time.Millisecond):
		t.Fatal("queued batch not answered at close")
	}
}

// TestPipelineCloseDuringPlaceAnswersShutdown: a batch the dispatcher took
// before Close, and admitted after it, is answered VerdictShutdown and never
// registered in flight: nothing of it reached the log.
func TestPipelineCloseDuringPlaceAnswersShutdown(t *testing.T) {
	services, sim := newServiceRing(t, 5, []string{"A", "B", "C"},
		WithServiceTimeout(100*time.Millisecond), WithSubmitCombine(1))
	sim.Partition("A", "B")
	sim.Partition("A", "C")
	p := services["A"].pipeline("g")
	reply, ch := collectReply()
	// A holds no mastership, so placing the batch starts a claim, which
	// cannot finish while A is cut off.
	p.SubmitAsync(submitted(wal.Txn{ID: "t1", Origin: "A", Writes: map[string]string{"a": "1"}}), reply)
	waitWindow(t, p, nil, 0)
	p.mu.Lock()
	placing := p.running
	p.mu.Unlock()
	if !placing {
		t.Fatal("dispatcher stopped before the claim finished")
	}
	p.close()
	heal(sim)
	if resp := awaitReply(t, ch); resp.OK || resp.Verdict != network.VerdictShutdown {
		t.Fatalf("batch closed while placed = %+v, want VerdictShutdown", resp)
	}
	if got, q := windowState(p); len(got) != 0 || q != 0 {
		t.Fatalf("after close: in flight %v with %d queued, want none", got, q)
	}
}

// TestSubmitWindowIgnoresNonPositive: a window of zero would never place a
// batch, so WithSubmitWindow keeps the default for n ≤ 0.
func TestSubmitWindowIgnoresNonPositive(t *testing.T) {
	for _, n := range []int{0, -3} {
		s := NewService("A", kvstore.New(), nil, WithSubmitWindow(n))
		if got := s.pipeline("g").limit; got != DefaultSubmitWindow {
			t.Errorf("WithSubmitWindow(%d): window %d, want %d", n, got, DefaultSubmitWindow)
		}
		s.Close()
	}
}

// TestPipelineTakeStaysWithinRoom: take combines queued submissions only
// while their entry fits room bytes, and a transaction too long for any
// entry is refused at admission, naming its size, and never queued.
func TestPipelineTakeStaysWithinRoom(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	defer s.Close()
	p := s.pipeline("g")
	p.mu.Lock()
	p.running = true // no dispatcher: this test takes by hand
	p.room = 1000
	p.mu.Unlock()
	txn := func(id string, n int) wal.TxnView {
		return submitted(wal.Txn{ID: id, Writes: map[string]string{id: string(make([]byte, n))}})
	}
	var refusal network.Message
	p.SubmitAsync(txn("huge", 1000), func(m network.Message) { refusal = m })
	if refusal.OK || !strings.Contains(refusal.Err, "does not fit one 1000-byte log entry") {
		t.Fatalf("a transaction over room: %+v, want a refusal naming its size", refusal)
	}
	for _, id := range []string{"a", "b", "c", "d"} {
		p.SubmitAsync(txn(id, 400), func(network.Message) {})
	}
	var sizes []int
	for batch := p.take(); len(batch) > 0; batch = p.take() {
		size := wal.MaxHeaderLen
		for _, ps := range batch {
			size += ps.txn.Size()
		}
		if size > p.room {
			t.Errorf("a batch of %d takes %d bytes, over room %d", len(batch), size, p.room)
		}
		sizes = append(sizes, len(batch))
	}
	if !slices.Equal(sizes, []int{2, 2}) {
		t.Errorf("batches of %v, want [2 2]", sizes)
	}
}

// TestPipelineAdmitOverEachPlace: admission asks each entry after the read
// position from its bytes, wherever the entry is — the in-flight window, the
// log's pending set, or an applied store row — for a conflict, an earlier
// attempt of the same transaction, or nothing. The log: 1 a claim at epoch
// 2; 2 an entry stamped epoch 1, fenced at apply; 3 applied; 4 a hole; 5
// pending above it; 6 in flight.
func TestPipelineAdmitOverEachPlace(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	defer s.Close()
	p := s.pipeline("g")
	entry := func(epoch int64, id, key string) []byte {
		return wal.Encode(wal.Entry{Epoch: epoch, Txns: []wal.Txn{{ID: id, Origin: "A", Writes: map[string]string{key: "1"}}}})
	}
	for pos, b := range map[int64][]byte{
		1: wal.Encode(wal.NewClaim(2, "A")),
		2: entry(1, "void", "v"),
		3: entry(2, "applied", "a"),
		5: entry(2, "pending", "p"),
	} {
		if _, err := p.lg.Append(pos, b); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.lg.WaitApplied(ctx, 3); err != nil {
		t.Fatal(err)
	}
	if !p.lg.Voided(2) || p.lg.Applied() != 3 || !p.lg.Has(5) {
		t.Fatalf("log: voided(2) %v, applied %d, has(5) %v; want true, 3, true", p.lg.Voided(2), p.lg.Applied(), p.lg.Has(5))
	}
	flight := entry(2, "flight", "f")
	p.mu.Lock()
	p.inflight[6] = string(flight)
	p.mu.Unlock()

	for _, tc := range []struct {
		name     string
		id       string
		readPos  int64 // the walk covers (readPos, pos)
		pos      int64
		reads    []string
		want     admission
		wantAt   int64
		inEntry  string // a transaction ID already admitted to the entry
		entryKey string // ... and the key it writes
	}{
		{name: "applied conflict", id: "x", readPos: 2, pos: 4, reads: []string{"a"}, want: admitConflict},
		{name: "applied duplicate", id: "applied", readPos: 2, pos: 4, want: admitDecided, wantAt: 3},
		{name: "voided duplicate stepped over", id: "void", readPos: 1, pos: 4, reads: []string{"q"}, want: admitOK},
		{name: "applied no conflict", id: "x", readPos: 1, pos: 4, reads: []string{"q"}, want: admitOK},
		{name: "pending conflict", id: "x", readPos: 4, pos: 6, reads: []string{"p"}, want: admitConflict},
		{name: "pending duplicate", id: "pending", readPos: 4, pos: 6, want: admitDecided, wantAt: 5},
		{name: "pending no conflict", id: "x", readPos: 4, pos: 6, reads: []string{"a"}, want: admitOK},
		{name: "in-flight conflict", id: "x", readPos: 5, pos: 7, reads: []string{"f"}, want: admitConflict},
		{name: "in-flight duplicate", id: "flight", readPos: 5, pos: 7, want: admitInFlight, wantAt: 6},
		{name: "in-flight no conflict", id: "x", readPos: 5, pos: 7, reads: []string{"p"}, want: admitOK},
		{name: "entry conflict", id: "x", readPos: 6, pos: 7, reads: []string{"e"}, inEntry: "y", entryKey: "e", want: admitConflict},
		{name: "entry duplicate", id: "y", readPos: 6, pos: 7, inEntry: "y", entryKey: "e", want: admitInFlight, wantAt: 7},
	} {
		var soFar []wal.TxnView
		if tc.inEntry != "" {
			soFar = append(soFar, submitted(wal.Txn{ID: tc.inEntry, Writes: map[string]string{tc.entryKey: "1"}}))
		}
		txn := submitted(wal.Txn{ID: tc.id, Origin: "A", ReadPos: tc.readPos, ReadSet: tc.reads})
		got, at, err := p.admit(ctx, txn, tc.pos, soFar)
		if err != nil || got != tc.want || at != tc.wantAt {
			t.Errorf("%s: admit = %v at %d (%v), want %v at %d", tc.name, got, at, err, tc.want, tc.wantAt)
		}
	}
}
