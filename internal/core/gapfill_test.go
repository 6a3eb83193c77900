package core

import (
	"bytes"
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
	"paxoscp/internal/wal"
)

// TestGapTriggersCatchUp: a follower that misses one apply message must not
// sit behind the gap until a read or Recover happens to come by. The next
// entry it receives lands above the gap, and one service timeout later the
// follower fetches what it missed from its peers — fetch only: no Paxos
// instance is driven from the background, so no prepare is ever sent.
func TestGapTriggersCatchUp(t *testing.T) {
	const timeout = 100 * time.Millisecond
	dcs := []string{"A", "B", "C"}
	services, sim := newServiceRing(t, 3, dcs, WithServiceTimeout(timeout))
	var dropNext atomic.Bool // C loses the next apply message it is sent
	var dropped, prepares atomic.Int64
	eps := make(map[string]network.Transport, len(dcs))
	for _, dc := range dcs {
		h := services[dc].AsyncHandler()
		eps[dc] = sim.EndpointAsync(dc, func(from string, req network.Message, reply func(network.Message)) {
			if req.Kind == network.KindPrepare {
				prepares.Add(1)
			}
			if dc == "C" && req.Kind == network.KindApply && dropNext.CompareAndSwap(true, false) {
				dropped.Store(req.Pos)
				reply(network.Status(false, "lost"))
				return
			}
			h(from, req, reply)
		})
	}
	cl := NewClient(1, "A", eps["A"], Config{Protocol: Master, MasterDC: "A", Seed: 1, Timeout: timeout})
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
// until hold closes: it keeps the log's drain stuck in a batch's flush.
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
	case <-eng.entered: // the drain is stuck flushing entry 1
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
	resp := ask(t, s, "B", network.Message{Kind: network.KindFetchLog, Group: "g", Pos: 2})
	if !resp.OK || string(resp.Payload) != string(b2) {
		t.Fatalf("fetch of a queued position = %+v, want the entry", resp)
	}
	close(eng.hold)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
}

// TestCatchUpKeepsDecidedBytes: a replica that catches up stores the bytes
// its peers hold, not a re-encoding of them. B and C hold at position 1 an
// entry whose write keys are out of order: the decoder accepts it, and
// wal.Encode would write it the other way round. Whether A learns it by
// CatchUp, by Recover or by its gap watch, A must then hold the same bytes,
// so that an apply message carrying them is the duplicate it is and not a
// second value for a decided position (invariant R1).
func TestCatchUpKeepsDecidedBytes(t *testing.T) {
	decided := []byte{0x57, 0x43, 1, // magic, version 1
		1,                 // one transaction
		1, 't', 0, 1, 'o', // id "t", read position 0, origin "o"
		0,                                 // no reads
		2, 1, 'z', 1, '1', 1, 'a', 1, '2', // writes z=1, then a=2
	}
	if e, err := wal.Decode(decided); err != nil || bytes.Equal(wal.Encode(e), decided) {
		t.Fatalf("the planted entry must decode (%v) and re-encode to other bytes", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for name, learn := range map[string]func(a *Service) error{
		"catch-up": func(a *Service) error { return a.CatchUp(ctx, "g", 1) },
		"recover":  func(a *Service) error { return a.Recover(ctx, "g") },
		"gap watch": func(a *Service) error {
			// An entry above the gap arms the watch, which fetches position 1.
			if err := a.ApplyDecided("g", 2, entryBytes("t2", 1, map[string]string{"k": "v"})); err != nil {
				return err
			}
			return a.log("g").WaitApplied(ctx, 2)
		},
	} {
		services, _ := newServiceRing(t, 3, []string{"A", "B", "C"})
		for _, dc := range []string{"B", "C"} {
			if err := services[dc].ApplyDecided("g", 1, decided); err != nil {
				t.Fatal(err)
			}
		}
		a := services["A"]
		if err := learn(a); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, _ := a.log("g").EntryBytes(1); got != string(decided) {
			t.Errorf("%s: A holds %x at position 1, its peers %x", name, got, decided)
		}
		if err := a.ApplyDecided("g", 1, decided); err != nil {
			t.Errorf("%s: applying the peers' bytes again: %v", name, err)
		}
	}
}
