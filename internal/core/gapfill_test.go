package core

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/stats"
)

// TestGapTriggersCatchUp: a follower that misses one apply message must not
// sit behind the gap until a read or Recover happens to come by. The next
// entry it receives lands above the gap, and one service timeout later the
// follower fetches what it missed from its peers — fetch only: no Paxos
// instance is driven from the background, so no prepare is ever sent.
func TestGapTriggersCatchUp(t *testing.T) {
	const timeout = 100 * time.Millisecond
	dcs := []string{"A", "B", "C"}
	sim := network.NewSim(network.NewTopology(dcs...), network.SimConfig{Seed: 3})
	defer sim.Close()
	services := make(map[string]*Service, len(dcs))
	var dropNext atomic.Bool // C loses the next apply message it is sent
	var dropped, prepares atomic.Int64
	for _, dc := range dcs {
		dc := dc
		ep := sim.Endpoint(dc, func(from string, req network.Message) network.Message {
			if req.Kind == network.KindPrepare {
				prepares.Add(1)
			}
			if dc == "C" && req.Kind == network.KindApply && dropNext.CompareAndSwap(true, false) {
				dropped.Store(req.Pos)
				return network.Status(false, "lost")
			}
			return services[dc].Handler()(from, req)
		})
		services[dc] = NewService(dc, kvstore.New(), ep, WithServiceTimeout(timeout))
		defer services[dc].Close()
	}
	cl := NewClient(1, "A", sim.Endpoint("A", services["A"].Handler()),
		Config{Protocol: Master, MasterDC: "A", Seed: 1, Timeout: timeout})
	ctx := context.Background()
	put := func(key string) int64 {
		t.Helper()
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(key, "v")
		res, err := tx.Commit(ctx)
		if err != nil || res.Status != stats.Committed {
			t.Fatalf("put %s: %+v %v", key, res, err)
		}
		return res.Pos
	}
	converged := func(within time.Duration) bool {
		for deadline := time.Now().Add(within); ; time.Sleep(5 * time.Millisecond) {
			want := services["A"].LastApplied("g")
			if services["B"].LastApplied("g") == want && services["C"].LastApplied("g") == want {
				return true
			}
			if time.Now().After(deadline) {
				return false
			}
		}
	}

	put("warm") // claims mastership; everyone applies it
	if !converged(2 * time.Second) {
		t.Fatal("replicas did not converge on the warm-up commit")
	}
	prepares.Store(0)
	dropNext.Store(true)
	lost := put("lost-at-C")
	above := put("above-the-gap")
	if got := dropped.Load(); got != lost {
		t.Fatalf("dropped the apply of position %d, want %d", got, lost)
	}
	// No read and no Recover from here on: only the gap watch can help C.
	if !converged(10 * timeout) {
		t.Fatalf("C stayed behind the gap: applied %d, master %d (lost %d, above %d)",
			services["C"].LastApplied("g"), services["A"].LastApplied("g"), lost, above)
	}
	if n := prepares.Load(); n != 0 {
		t.Fatalf("gap catch-up sent %d prepares; it must only fetch", n)
	}
}

// holdEngine is a kvstore.Engine whose Sync announces itself and then blocks
// until hold closes: it keeps the apply goroutine stuck in a batch's flush.
type holdEngine struct {
	mu      sync.Mutex
	seq     uint64
	hold    chan struct{}
	entered chan struct{}
}

func (e *holdEngine) Append(muts []kvstore.Mutation) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.seq += uint64(len(muts))
	return e.seq, nil
}

func (e *holdEngine) Sync(uint64) error {
	select {
	case e.entered <- struct{}{}:
	default:
	}
	<-e.hold
	return nil
}

func (e *holdEngine) Close() error { return nil }

// TestFetchLogServesQueuedEntry: between ApplyDecided's Append and the batch
// that writes the log row, the entry is in the log's pending set only — and a
// peer's catch-up fetch arriving in that window must still be served it.
func TestFetchLogServesQueuedEntry(t *testing.T) {
	eng := &holdEngine{hold: make(chan struct{}), entered: make(chan struct{}, 1)}
	store := kvstore.New()
	store.AttachEngine(eng)
	s := NewService("A", store, nil)
	defer s.Close()

	applied := make(chan error, 1)
	go func() { applied <- s.ApplyDecided("g", 1, entryBytes("t1", 0, map[string]string{"x": "1"})) }()
	select {
	case <-eng.entered: // the apply goroutine is stuck flushing entry 1
	case <-time.After(5 * time.Second):
		t.Fatal("apply never reached its flush")
	}
	b2 := entryBytes("t2", 1, map[string]string{"x": "2"})
	if _, err := s.log("g").Append(2, b2); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.ReadPacked(paxos.StateKey("g", 2), kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("entry 2 already has a log row (%v); the test no longer covers the queued window", err)
	}
	resp := s.Handler()("B", network.Message{Kind: network.KindFetchLog, Group: "g", Pos: 2})
	if !resp.OK || string(resp.Payload) != string(b2) {
		t.Fatalf("fetch of a queued position = %+v, want the entry", resp)
	}
	close(eng.hold)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
}
