package core

import (
	"testing"

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
		return &pendingSubmit{txn: wal.Txn{ID: id}, deliver: func(network.Message) {}}
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
	ps := &pendingSubmit{txn: wal.Txn{ID: "x"}, deliver: func(network.Message) {}}
	if p.enqueue(false, ps) {
		t.Fatal("enqueue accepted on closed pipeline")
	}
	reply, ch := collectReply()
	p.SubmitAsync(wal.Txn{ID: "y"}, reply)
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
		p.SubmitAsync(wal.Txn{ID: "q"}, func(network.Message) {})
	}
	var verdict network.Message
	delivered := false
	p.SubmitAsync(wal.Txn{ID: "extra"}, func(m network.Message) { verdict = m; delivered = true })
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
	if !p.enqueue(true, &pendingSubmit{txn: wal.Txn{ID: "p"}, deliver: func(network.Message) {}}) {
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
