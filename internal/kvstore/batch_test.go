package kvstore

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
)

func TestApplyBatchBasic(t *testing.T) {
	s := New()
	err := s.ApplyBatch([]BatchWrite{
		{Key: "a", Value: Value{"v": "1"}, TS: 1},
		{Key: "b", Value: Value{"v": "2"}, TS: 1},
		{Key: "a", Value: Value{"v": "3"}, TS: 2},
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
	if v, _, err := s.Read("b", Latest); err != nil || v["v"] != "2" {
		t.Fatalf("b = %v %v", v, err)
	}
}

// TestApplyBatchKeyBytes: a write named by KeyBytes lands under that name,
// the store keeps its own copy of the name of a row it adds — the caller
// reuses its buffer — and a write to a row that exists allocates no name.
func TestApplyBatchKeyBytes(t *testing.T) {
	s := New()
	buf := []byte("row-a")
	if err := s.ApplyBatch([]BatchWrite{{KeyBytes: buf, Value: Value{"v": "1"}, TS: 1}}); err != nil {
		t.Fatal(err)
	}
	copy(buf, "row-b")
	if v, _, err := s.Read("row-a", Latest); err != nil || v["v"] != "1" {
		t.Fatalf("row-a = %v %v", v, err)
	}
	rows, _, err := s.ScanPrefix("", "", 0, Latest)
	if err != nil || len(rows) != 1 || rows[0].Key != "row-a" {
		t.Fatalf("rows after the buffer changed = %+v %v, want row-a alone", rows, err)
	}
	val := Pack(Value{"v": "2"})
	ts := int64(1)
	copy(buf, "row-a")
	allocs := testing.AllocsPerRun(100, func() {
		ts++
		if err := s.ApplyBatch([]BatchWrite{{KeyBytes: buf, Value: &val, TS: ts}}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 { // the version the row keeps
		t.Errorf("a KeyBytes write to an existing row allocates %.0f times, want at most 1", allocs)
	}
}

func TestApplyBatchEmpty(t *testing.T) {
	s := New()
	if err := s.ApplyBatch(nil); err != nil {
		t.Fatal(err)
	}
}

func TestApplyBatchRejectsImplicitTimestamp(t *testing.T) {
	s := New()
	err := s.ApplyBatch([]BatchWrite{{Key: "a", Value: Value{"v": "1"}, TS: -1}})
	if err == nil {
		t.Fatal("negative timestamp accepted")
	}
}

func TestApplyBatchIdempotentReplay(t *testing.T) {
	s := New()
	batch := []BatchWrite{
		{Key: "a", Value: Value{"v": "1"}, TS: 1},
		{Key: "b", Value: Value{"v": "2"}, TS: 1},
	}
	for i := 0; i < 3; i++ {
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatalf("replay #%d: %v", i, err)
		}
	}
	if n := s.Versions("a"); n != 1 {
		t.Fatalf("a has %d versions, want 1", n)
	}
}

// TestApplyBatchConflictAppliesNothing is the atomicity contract: a batch
// that conflicts with existing state must not mutate any row, including rows
// the batch would have created.
func TestApplyBatchConflictAppliesNothing(t *testing.T) {
	s := New()
	if _, err := s.Write("clash", Value{"v": "old"}, 5); err != nil {
		t.Fatal(err)
	}
	err := s.ApplyBatch([]BatchWrite{
		{Key: "fresh1", Value: Value{"v": "x"}, TS: 1},
		{Key: "clash", Value: Value{"v": "DIFFERENT"}, TS: 5},
		{Key: "fresh2", Value: Value{"v": "y"}, TS: 1},
	})
	if !errors.Is(err, ErrStaleWrite) {
		t.Fatalf("err = %v, want ErrStaleWrite", err)
	}
	for _, key := range []string{"fresh1", "fresh2"} {
		if _, _, err := s.Read(key, Latest); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s was written by a failed batch", key)
		}
	}
	if v, _, _ := s.Read("clash", Latest); v["v"] != "old" {
		t.Fatalf("clash overwritten: %v", v)
	}
}

// TestApplyBatchRefusalAddsNoRow: a refused batch leaves no trace of the
// keys it would have added — not even an empty row, which Len would count
// and the ordered index would page.
func TestApplyBatchRefusalAddsNoRow(t *testing.T) {
	s := New()
	if _, err := s.Write("a", Value{"v": "old"}, 1); err != nil {
		t.Fatal(err)
	}
	look := func() (n int, rows, page []string) {
		for row, err := range s.Rows("", "", Latest) {
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, row.Key)
		}
		return s.Len(), rows, s.idx.page(nil, "", "", leafCap)
	}
	n, rows, page := look()
	err := s.ApplyBatch([]BatchWrite{
		{Key: "b", Value: Value{"v": "new"}, TS: 1},
		{Key: "a", Value: Value{"v": "rewrite"}, TS: 1},
	})
	if !errors.Is(err, ErrStaleWrite) {
		t.Fatalf("err = %v, want ErrStaleWrite", err)
	}
	if n2, rows2, page2 := look(); n2 != n || !slices.Equal(rows2, rows) || !slices.Equal(page2, page) {
		t.Fatalf("after the refusal: Len %d, Rows %q, index page %q; before: %d, %q, %q", n2, rows2, page2, n, rows, page)
	}
}

// TestApplyBatchRacesDeletes runs idempotent batches against concurrent
// Deletes of their rows, under -race: a row pinned for validation or apply
// that a Delete takes is re-resolved, never written while orphaned, and a
// refusal-free batch never fails for it. Once the deleter stops, one more
// batch leaves every key with its value and no empty row behind.
func TestApplyBatchRacesDeletes(t *testing.T) {
	s := New()
	const writers, keys, batches = 2, 64, 300
	key := func(w, i int) string { return fmt.Sprintf("w%d/k%02d", w, i) }
	batch := func(w int, ts int64) []BatchWrite {
		b := make([]BatchWrite, keys)
		for i := range b {
			b[i] = BatchWrite{Key: key(w, i), Value: PackAttrs("v", fmt.Sprint(ts)), TS: ts}
		}
		return b
	}
	stop := make(chan struct{})
	deleted := make(chan struct{})
	go func() {
		defer close(deleted)
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
				s.Delete(key(n%writers, n%keys))
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for ts := int64(1); ts <= batches; ts++ {
				if err := s.ApplyBatch(batch(w, ts)); err != nil {
					t.Errorf("writer %d at %d: %v", w, ts, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-deleted
	for w := 0; w < writers; w++ {
		if err := s.ApplyBatch(batch(w, batches+1)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < keys; i++ {
			if v, _, err := s.ReadPacked(key(w, i), Latest); err != nil || v.Get("v") != fmt.Sprint(batches+1) {
				t.Fatalf("%s = %q (%v)", key(w, i), v.Get("v"), err)
			}
		}
	}
	if n := s.Len(); n != writers*keys {
		t.Fatalf("Len %d, want %d", n, writers*keys)
	}
}

func TestApplyBatchBackfillKeepsHistoricalReads(t *testing.T) {
	s := New()
	if err := s.ApplyBatch([]BatchWrite{{Key: "k", Value: Value{"v": "late"}, TS: 10}}); err != nil {
		t.Fatal(err)
	}
	// Backfill an older position after a newer one exists (out-of-order
	// apply across batches).
	if err := s.ApplyBatch([]BatchWrite{{Key: "k", Value: Value{"v": "early"}, TS: 4}}); err != nil {
		t.Fatal(err)
	}
	if v, ts, err := s.Read("k", 7); err != nil || ts != 4 || v["v"] != "early" {
		t.Fatalf("k@7 = %v ts=%d %v", v, ts, err)
	}
	if v, _, err := s.Read("k", Latest); err != nil || v["v"] != "late" {
		t.Fatalf("k@latest = %v %v", v, err)
	}
}

// TestApplyBatchConcurrentIdenticalBatches drives many goroutines replaying
// the same batches (the replicated-log duplicate-delivery case) and checks
// convergence; run with -race.
func TestApplyBatchConcurrentIdenticalBatches(t *testing.T) {
	s := New()
	const goroutines = 8
	const positions = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := int64(1); ts <= positions; ts++ {
				batch := []BatchWrite{
					{Key: "shared", Value: Value{"v": fmt.Sprint(ts)}, TS: ts},
					{Key: fmt.Sprintf("k%d", ts%7), Value: Value{"v": fmt.Sprint(ts)}, TS: ts},
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
	if v, _, err := s.Read("shared", Latest); err != nil || v["v"] != fmt.Sprint(positions) {
		t.Fatalf("shared latest = %v %v", v, err)
	}
}

// TestApplyBatchConcurrentDisjointShards checks that batches touching
// different keys do not corrupt each other; run with -race.
func TestApplyBatchConcurrentDisjointShards(t *testing.T) {
	s := New()
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ts := int64(1); ts <= 40; ts++ {
				batch := make([]BatchWrite, 0, 4)
				for k := 0; k < 4; k++ {
					batch = append(batch, BatchWrite{
						Key:   fmt.Sprintf("g%d-k%d", g, k),
						Value: Value{"v": fmt.Sprint(ts)},
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
			if v, _, err := s.Read(fmt.Sprintf("g%d-k%d", g, k), Latest); err != nil || v["v"] != "40" {
				t.Fatalf("g%d-k%d = %v %v", g, k, v, err)
			}
		}
	}
}

func TestApplyBatchClosedStore(t *testing.T) {
	s := New()
	s.Close()
	err := s.ApplyBatch([]BatchWrite{{Key: "a", Value: Value{"v": "1"}, TS: 1}})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// BenchmarkApplyBatch vs BenchmarkWriteLoop measures the batched apply path
// against the seed's per-key WriteIdempotent loop for the same workload: 64
// keys landing at one log position per iteration.
func BenchmarkApplyBatch(b *testing.B) {
	s := New()
	const keys = 64
	batch := make([]BatchWrite, keys)
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("data/g/key-%d", k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i + 1)
		for k := 0; k < keys; k++ {
			batch[k] = BatchWrite{Key: names[k], Value: Value{"v": "x"}, TS: ts}
		}
		if err := s.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteLoop(b *testing.B) {
	s := New()
	const keys = 64
	names := make([]string, keys)
	for k := range names {
		names[k] = fmt.Sprintf("data/g/key-%d", k)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := int64(i + 1)
		for k := 0; k < keys; k++ {
			if err := s.WriteIdempotent(names[k], Value{"v": "x"}, ts); err != nil {
				b.Fatal(err)
			}
		}
	}
}
