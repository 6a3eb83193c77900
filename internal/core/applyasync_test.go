package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/wal"
)

// gatedEngine is a durability engine whose syncs wait while its gate is
// shut, holding every apply batch — and so every apply's reply — back.
type gatedEngine struct {
	mu   sync.Mutex
	gate chan struct{} // closed while syncs pass
	seq  atomic.Uint64
}

func newGatedEngine() *gatedEngine {
	e := &gatedEngine{gate: make(chan struct{})}
	close(e.gate)
	return e
}

func (e *gatedEngine) Append([]kvstore.Mutation) (uint64, error) { return e.seq.Add(1), nil }
func (e *gatedEngine) Close() error                              { return nil }
func (e *gatedEngine) Sync(uint64) error {
	e.mu.Lock()
	gate := e.gate
	e.mu.Unlock()
	<-gate
	return nil
}

func (e *gatedEngine) shut() {
	e.mu.Lock()
	e.gate = make(chan struct{})
	e.mu.Unlock()
}

func (e *gatedEngine) open() {
	e.mu.Lock()
	select {
	case <-e.gate:
	default:
		close(e.gate)
	}
	e.mu.Unlock()
}

// gatedService is a service, with no transport, over a store whose syncs
// the returned engine holds. Cleanup opens the gate and closes the service.
func gatedService(t *testing.T) (*Service, *gatedEngine) {
	t.Helper()
	store := kvstore.New()
	eng := newGatedEngine()
	store.AttachEngine(eng)
	s := NewService("A", store, nil)
	s.EnsureGroups("g")
	t.Cleanup(func() {
		eng.open()
		s.Close()
	})
	return s, eng
}

// applyMsg is the apply message for a one-transaction entry at pos.
func applyMsg(pos int64) network.Message {
	entry := wal.Entry{Txns: []wal.Txn{{ID: fmt.Sprintf("t%d", pos), Writes: map[string]string{"k": "v"}}}}
	return network.Message{Kind: network.KindApply, Group: "g", Pos: pos, Ballot: paxos.DecidedBallot, Payload: wal.Encode(entry)}
}

// answers counts the replies to a batch of applies.
type answers struct {
	ok, failed, twice atomic.Int64
	seen              sync.Map
}

func (a *answers) reply(pos int64) func(network.Message) {
	return func(m network.Message) {
		if _, dup := a.seen.LoadOrStore(pos, true); dup {
			a.twice.Add(1)
		}
		if m.OK {
			a.ok.Add(1)
		} else {
			a.failed.Add(1)
		}
	}
}

func (a *answers) await(t *testing.T, n int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for a.ok.Load()+a.failed.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("%d applies answered ok, %d failed, want %d answers", a.ok.Load(), a.failed.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAppliesHoldNoGoroutine: applies waiting for their batch wait on the
// log's completion list, not in goroutines of their own. Two hundred applies
// above a gap, with the drain held at its sync, leave the goroutine count
// where it was; once the sync passes and the gap fills, every one is
// answered, once, and the watermark covers them all.
func TestAppliesHoldNoGoroutine(t *testing.T) {
	s, eng := gatedService(t)
	ah := s.AsyncHandler()
	base := runtime.NumGoroutine()
	eng.shut()
	var got answers
	const n = 200
	for pos := int64(2); pos <= n+1; pos++ {
		ah("B", applyMsg(pos), got.reply(pos))
	}
	time.Sleep(20 * time.Millisecond) // let the shard workers take them all
	if g := runtime.NumGoroutine(); g > base+10 {
		t.Fatalf("%d goroutines with %d applies waiting, want at most %d", g, n, base+10)
	}
	if a := got.ok.Load() + got.failed.Load(); a != 0 {
		t.Fatalf("%d applies answered before their batch landed", a)
	}
	ah("B", applyMsg(1), got.reply(1))
	eng.open()
	got.await(t, n+1)
	if got.failed.Load() != 0 || got.twice.Load() != 0 {
		t.Fatalf("%d applies failed, %d answered twice", got.failed.Load(), got.twice.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.LastApplied("g") != n+1 {
		if time.Now().After(deadline) {
			t.Fatalf("watermark %d, want %d", s.LastApplied("g"), n+1)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseAnswersWaitingApplies: Close answers every apply still waiting
// for its batch with an error at once, rather than leaving the proposer to
// time out.
func TestCloseAnswersWaitingApplies(t *testing.T) {
	s, eng := gatedService(t)
	ah := s.AsyncHandler()
	eng.shut()
	var got answers
	const n = 50
	for pos := int64(1); pos <= n; pos++ {
		ah("B", applyMsg(pos), got.reply(pos))
	}
	time.Sleep(20 * time.Millisecond)
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	got.await(t, n) // answered while the sync is still held
	eng.open()      // Close waits for the drain stuck in it
	<-closed
	if got.ok.Load() != 0 || got.failed.Load() != n || got.twice.Load() != 0 {
		t.Fatalf("%d ok, %d failed, %d answered twice; want all %d failed once",
			got.ok.Load(), got.failed.Load(), got.twice.Load(), n)
	}
}
