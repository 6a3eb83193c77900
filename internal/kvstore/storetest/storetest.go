// Package storetest is the engine-independent kvstore conformance suite:
// the batch atomicity and concurrency contracts every storage backend must
// uphold, run against the in-memory engine (internal/kvstore's external
// tests) and the disk engine (internal/kvstore/disk) so the two cannot
// drift apart. Tier-1 `go test ./...` runs the full matrix.
package storetest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// Factory returns a fresh store for one subtest. The factory is responsible
// for cleanup (t.Cleanup); each subtest gets its own store.
type Factory func(t *testing.T) *kvstore.Store

// Run exercises the conformance suite against stores built by factory.
func Run(t *testing.T, factory Factory) {
	t.Run("BatchBasic", func(t *testing.T) { batchBasic(t, factory(t)) })
	t.Run("BatchEmpty", func(t *testing.T) { batchEmpty(t, factory(t)) })
	t.Run("BatchRejectsImplicitTimestamp", func(t *testing.T) { batchRejectsImplicitTS(t, factory(t)) })
	t.Run("BatchIdempotentReplay", func(t *testing.T) { batchIdempotentReplay(t, factory(t)) })
	t.Run("BatchConflictAppliesNothing", func(t *testing.T) { batchConflictAppliesNothing(t, factory(t)) })
	t.Run("BatchBackfillKeepsHistoricalReads", func(t *testing.T) { batchBackfill(t, factory(t)) })
	t.Run("BatchConcurrentIdenticalBatches", func(t *testing.T) { batchConcurrentIdentical(t, factory(t)) })
	t.Run("BatchConcurrentDisjointShards", func(t *testing.T) { batchConcurrentDisjoint(t, factory(t)) })
	t.Run("WriteFamily", func(t *testing.T) { writeFamily(t, factory(t)) })
	t.Run("ClosedStore", func(t *testing.T) { closedStore(t, factory(t)) })
	runScan(t, factory)
}

// RecoveryFactory returns a fresh store and a function that stops it the
// hard way and returns what a restart recovers: power loss and WAL replay
// for the disk engine, a Save/Load round trip for the in-memory one.
type RecoveryFactory func(t *testing.T) (s *kvstore.Store, reopen func() *kvstore.Store)

// RunRecovery exercises the contracts that span a restart.
func RunRecovery(t *testing.T, factory RecoveryFactory) {
	t.Run("MetaRowHoldsOneVersion", func(t *testing.T) {
		s, reopen := factory(t)
		metaRowOneVersion(t, s, reopen)
	})
}

// metaRowOneVersion drives a replicated log through many drains — each one
// batch of data writes plus the replace-latest meta row — and checks the
// meta row never accumulates history, live or through recovery, and that
// the recovered row still describes the recovered data.
func metaRowOneVersion(t *testing.T, s *kvstore.Store, reopen func() *kvstore.Store) {
	const drains = 200
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	lg := replog.Open(s, "g")
	for pos := int64(1); pos <= drains; pos++ {
		txn := wal.Txn{ID: fmt.Sprint("t", pos), Writes: map[string]string{
			"hot": fmt.Sprint(pos), fmt.Sprint("k", pos%7): fmt.Sprint(pos),
		}}
		if _, err := lg.Append(pos, wal.Encode(wal.NewEntry(txn))); err != nil {
			t.Fatal(err)
		}
		// Waiting per position makes every append its own drain.
		if err := lg.WaitApplied(ctx, pos); err != nil {
			t.Fatal(err)
		}
	}
	lg.Close()
	meta := replog.MetaKey("g")
	if n := s.Versions(meta); n != 1 {
		t.Fatalf("meta row holds %d versions after %d drains, want 1", n, drains)
	}

	s2 := reopen()
	if n := s2.Versions(meta); n != 1 {
		t.Fatalf("meta row holds %d versions after recovery, want 1", n)
	}
	lg2 := replog.Open(s2, "g")
	defer lg2.Close()
	if got := lg2.Applied(); got != drains {
		t.Fatalf("recovered watermark = %d, want %d", got, drains)
	}
	if v, ts, err := s2.Read(replog.DataKey("g", "hot"), kvstore.Latest); err != nil || ts != drains || v["v"] != fmt.Sprint(drains) {
		t.Fatalf("recovered hot row = %v@%d %v, want %d@%d", v, ts, err, drains, drains)
	}
}

func batchBasic(t *testing.T, s *kvstore.Store) {
	err := s.ApplyBatch([]kvstore.BatchWrite{
		{Key: "a", Value: kvstore.Value{"v": "1"}, TS: 1},
		{Key: "b", Value: kvstore.Value{"v": "2"}, TS: 1},
		{Key: "a", Value: kvstore.Value{"v": "3"}, TS: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, _, err := s.Read("a", 1); err != nil || v["v"] != "1" {
		t.Fatalf("a@1 = %v %v", v, err)
	}
	if v, _, err := s.Read("a", 2); err != nil || v["v"] != "3" {
		t.Fatalf("a@2 = %v %v", v, err)
	}
	if v, _, err := s.Read("b", kvstore.Latest); err != nil || v["v"] != "2" {
		t.Fatalf("b = %v %v", v, err)
	}
}

func batchEmpty(t *testing.T, s *kvstore.Store) {
	if err := s.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
}

func batchRejectsImplicitTS(t *testing.T, s *kvstore.Store) {
	err := s.ApplyBatch([]kvstore.BatchWrite{{Key: "a", Value: kvstore.Value{"v": "1"}, TS: -1}})
	if err == nil {
		t.Fatal("negative timestamp accepted")
	}
}

func batchIdempotentReplay(t *testing.T, s *kvstore.Store) {
	for i := 0; i < 3; i++ {
		batch := []kvstore.BatchWrite{
			{Key: "a", Value: kvstore.Value{"v": "1"}, TS: 1},
			{Key: "b", Value: kvstore.Value{"v": "2"}, TS: 1},
		}
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatalf("replay #%d: %v", i, err)
		}
	}
	if n := s.Versions("a"); n != 1 {
		t.Fatalf("a has %d versions, want 1", n)
	}
}

// batchConflictAppliesNothing is the atomicity contract: a batch that
// conflicts with existing state must not mutate any row, including rows the
// batch would have created.
func batchConflictAppliesNothing(t *testing.T, s *kvstore.Store) {
	if _, err := s.Write("clash", kvstore.Value{"v": "old"}, 5); err != nil {
		t.Fatal(err)
	}
	err := s.ApplyBatch([]kvstore.BatchWrite{
		{Key: "fresh1", Value: kvstore.Value{"v": "x"}, TS: 1},
		{Key: "clash", Value: kvstore.Value{"v": "DIFFERENT"}, TS: 5},
		{Key: "fresh2", Value: kvstore.Value{"v": "y"}, TS: 1},
	})
	if !errors.Is(err, kvstore.ErrStaleWrite) {
		t.Fatalf("err = %v, want ErrStaleWrite", err)
	}
	for _, key := range []string{"fresh1", "fresh2"} {
		if _, _, err := s.Read(key, kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("%s was written by a failed batch", key)
		}
	}
	if v, _, _ := s.Read("clash", kvstore.Latest); v["v"] != "old" {
		t.Fatalf("clash overwritten: %v", v)
	}
}

func batchBackfill(t *testing.T, s *kvstore.Store) {
	if err := s.ApplyBatch([]kvstore.BatchWrite{{Key: "k", Value: kvstore.Value{"v": "late"}, TS: 10}}); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyBatch([]kvstore.BatchWrite{{Key: "k", Value: kvstore.Value{"v": "early"}, TS: 4}}); err != nil {
		t.Fatal(err)
	}
	if v, ts, err := s.Read("k", 7); err != nil || ts != 4 || v["v"] != "early" {
		t.Fatalf("k@7 = %v ts=%d %v", v, ts, err)
	}
	if v, _, err := s.Read("k", kvstore.Latest); err != nil || v["v"] != "late" {
		t.Fatalf("k@latest = %v %v", v, err)
	}
}

// batchConcurrentIdentical drives many goroutines replaying the same batches
// (the replicated-log duplicate-delivery case) and checks convergence.
func batchConcurrentIdentical(t *testing.T, s *kvstore.Store) {
	const goroutines = 8
	const positions = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := int64(1); ts <= positions; ts++ {
				batch := []kvstore.BatchWrite{
					{Key: "shared", Value: kvstore.Value{"v": fmt.Sprint(ts)}, TS: ts},
					{Key: fmt.Sprintf("k%d", ts%7), Value: kvstore.Value{"v": fmt.Sprint(ts)}, TS: ts},
				}
				if err := s.ApplyBatch(batch); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := s.Versions("shared"); n != positions {
		t.Fatalf("shared has %d versions, want %d", n, positions)
	}
	if v, _, err := s.Read("shared", kvstore.Latest); err != nil || v["v"] != fmt.Sprint(positions) {
		t.Fatalf("shared latest = %v %v", v, err)
	}
}

func batchConcurrentDisjoint(t *testing.T, s *kvstore.Store) {
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := int64(1); ts <= 40; ts++ {
				batch := make([]kvstore.BatchWrite, 0, 4)
				for k := 0; k < 4; k++ {
					batch = append(batch, kvstore.BatchWrite{
						Key:   fmt.Sprintf("g%d-k%d", g, k),
						Value: kvstore.Value{"v": fmt.Sprint(ts)},
						TS:    ts,
					})
				}
				if err := s.ApplyBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		for k := 0; k < 4; k++ {
			if v, _, err := s.Read(fmt.Sprintf("g%d-k%d", g, k), kvstore.Latest); err != nil || v["v"] != "40" {
				t.Fatalf("g%d-k%d = %v %v", g, k, v, err)
			}
		}
	}
}

// writeFamily covers the non-batch mutating operations every backend must
// support identically: Write, WriteIdempotent, CheckAndWrite, a
// replace-latest batch element, GC, Delete.
func writeFamily(t *testing.T, s *kvstore.Store) {
	if _, err := s.Write("w", kvstore.Value{"v": "1"}, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("w", kvstore.Value{"v": "0"}, 1); !errors.Is(err, kvstore.ErrStaleWrite) {
		t.Fatalf("stale write: err=%v, want ErrStaleWrite", err)
	}
	if err := s.WriteIdempotent("w", kvstore.Value{"v": "1"}, 1); err != nil {
		t.Fatalf("identical rewrite: %v", err)
	}
	if err := s.CheckAndWrite("caw", "state", "", kvstore.Value{"state": "init"}); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckAndWrite("caw", "state", "wrong", kvstore.Value{"state": "x"}); !errors.Is(err, kvstore.ErrCheckFailed) {
		t.Fatalf("check: err=%v, want ErrCheckFailed", err)
	}
	if err := s.ApplyBatch([]kvstore.BatchWrite{
		{Key: "caw", Value: kvstore.Value{"state": "replaced"}, TS: 9, Replace: true},
	}); err != nil {
		t.Fatal(err)
	}
	if v, ts, err := s.Read("caw", kvstore.Latest); err != nil || ts != 9 || v["state"] != "replaced" || s.Versions("caw") != 1 {
		t.Fatalf("caw = %v@%d (%d versions) %v", v, ts, s.Versions("caw"), err)
	}
	for ts := int64(2); ts <= 6; ts++ {
		if err := s.WriteIdempotent("w", kvstore.Value{"v": fmt.Sprint(ts)}, ts); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := s.GC("w", 4); dropped != 3 {
		t.Fatalf("GC dropped %d, want 3", dropped)
	}
	s.Delete("caw")
	if _, _, err := s.Read("caw", kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("deleted key still readable: err=%v", err)
	}
}

func closedStore(t *testing.T, s *kvstore.Store) {
	s.Close()
	err := s.ApplyBatch([]kvstore.BatchWrite{{Key: "a", Value: kvstore.Value{"v": "1"}, TS: 1}})
	if !errors.Is(err, kvstore.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if _, err := s.Write("a", kvstore.Value{"v": "1"}, 1); !errors.Is(err, kvstore.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
