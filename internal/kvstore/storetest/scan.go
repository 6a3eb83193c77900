package storetest

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"paxoscp/internal/kvstore"
)

// The ordered-scan half of the conformance suite (DESIGN.md §16): paging,
// cursor resumption, prefix isolation, deleted-row skipping, and the
// snapshot-consistency property checked against a naive sort-all oracle
// under concurrent writers, deleters, and GC. Registered from Run so the
// memory and disk engines run the identical battery.

func runScan(t *testing.T, factory Factory) {
	t.Run("ScanBasic", func(t *testing.T) { scanBasic(t, factory(t)) })
	t.Run("ScanPaging", func(t *testing.T) { scanPaging(t, factory(t)) })
	t.Run("ScanSkipsDeletedAndRecreated", func(t *testing.T) { scanDeleteRecreate(t, factory(t)) })
	t.Run("ScanPinnedTimestamp", func(t *testing.T) { scanPinnedTS(t, factory(t)) })
	t.Run("ScanOracleUnderChurn", func(t *testing.T) { scanOracleUnderChurn(t, factory(t)) })
}

// collectScan pages through the whole prefix region at ts with the given
// page size and returns every row seen, failing on a page that is unsorted
// or overlaps the cursor.
func collectScan(t *testing.T, s *kvstore.Store, prefix string, page int, ts int64) []kvstore.ScanRow {
	t.Helper()
	var out []kvstore.ScanRow
	after := ""
	for {
		rows, more, err := s.ScanPrefix(prefix, after, page, ts)
		if err != nil {
			t.Fatalf("ScanPrefix(%q, %q): %v", prefix, after, err)
		}
		for _, r := range rows {
			if !strings.HasPrefix(r.Key, prefix) {
				t.Fatalf("key %q leaked into prefix %q", r.Key, prefix)
			}
			if r.Key <= after {
				t.Fatalf("key %q at or before cursor %q", r.Key, after)
			}
			after = r.Key
			out = append(out, r)
		}
		if !more {
			return out
		}
		if len(rows) == 0 {
			t.Fatalf("more=true with empty page at cursor %q", after)
		}
	}
}

func scanBasic(t *testing.T, s *kvstore.Store) {
	for i := 0; i < 20; i++ {
		if _, err := s.Write(fmt.Sprintf("a/k%02d", i), kvstore.Value{"v": fmt.Sprint(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Write("b/other", kvstore.Value{"v": "x"}, 1); err != nil {
		t.Fatal(err)
	}
	rows := collectScan(t, s, "a/", 7, kvstore.Latest)
	if len(rows) != 20 {
		t.Fatalf("scan returned %d rows, want 20", len(rows))
	}
	for i, r := range rows {
		want := fmt.Sprintf("a/k%02d", i)
		if r.Key != want || r.Val.Get("v") != fmt.Sprint(i) {
			t.Fatalf("row %d = %q %v, want %q", i, r.Key, r.Val, want)
		}
	}
	// Empty region and unlimited page.
	if rows, more, err := s.ScanPrefix("zzz/", "", 10, kvstore.Latest); err != nil || more || len(rows) != 0 {
		t.Fatalf("empty region: %v %v %v", rows, more, err)
	}
	if rows, more, err := s.ScanPrefix("a/", "", 0, kvstore.Latest); err != nil || more || len(rows) != 20 {
		t.Fatalf("unlimited: %d rows more=%v err=%v", len(rows), more, err)
	}
}

func scanPaging(t *testing.T, s *kvstore.Store) {
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := s.Write(fmt.Sprintf("p/%03d", i), kvstore.Value{"v": "x"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for _, page := range []int{1, 3, n - 1, n, n + 50} {
		rows := collectScan(t, s, "p/", page, kvstore.Latest)
		if len(rows) != n {
			t.Fatalf("page=%d: %d rows, want %d", page, len(rows), n)
		}
	}
	// An exact-fit page must report more=false on the final page, not hand
	// out a spurious empty continuation... (more may legitimately be true at
	// page boundaries; what must hold is that paging terminates and misses
	// nothing, which collectScan already checks.)
	rows, more, err := s.ScanPrefix("p/", "p/098", 10, kvstore.Latest)
	if err != nil || more || len(rows) != 1 || rows[0].Key != "p/099" {
		t.Fatalf("tail page: rows=%v more=%v err=%v", rows, more, err)
	}
}

func scanDeleteRecreate(t *testing.T, s *kvstore.Store) {
	for i := 0; i < 30; i++ {
		if _, err := s.Write(fmt.Sprintf("d/k%02d", i), kvstore.Value{"v": "1"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i += 2 {
		s.Delete(fmt.Sprintf("d/k%02d", i))
	}
	// Recreate a few deleted keys: each must appear exactly once.
	for i := 0; i < 10; i += 2 {
		if _, err := s.Write(fmt.Sprintf("d/k%02d", i), kvstore.Value{"v": "2"}, 2); err != nil {
			t.Fatal(err)
		}
	}
	rows := collectScan(t, s, "d/", 4, kvstore.Latest)
	seen := map[string]string{}
	for _, r := range rows {
		if _, dup := seen[r.Key]; dup {
			t.Fatalf("key %q returned twice", r.Key)
		}
		seen[r.Key] = r.Val.Get("v")
	}
	for i := 0; i < 30; i++ {
		key := fmt.Sprintf("d/k%02d", i)
		switch {
		case i%2 == 1: // never deleted
			if seen[key] != "1" {
				t.Fatalf("%s = %q, want 1", key, seen[key])
			}
		case i < 10: // deleted then recreated
			if seen[key] != "2" {
				t.Fatalf("%s = %q, want 2", key, seen[key])
			}
		default: // deleted
			if _, ok := seen[key]; ok {
				t.Fatalf("deleted key %s still scanned", key)
			}
		}
	}
}

// scanPinnedTS checks the timestamp-resolution contract: rows resolve at ts
// exactly as Read would, and rows with no version at or before ts vanish.
func scanPinnedTS(t *testing.T, s *kvstore.Store) {
	if err := s.ApplyBatch([]kvstore.BatchWrite{
		{Key: "t/a", Value: kvstore.Value{"v": "a1"}, TS: 1},
		{Key: "t/b", Value: kvstore.Value{"v": "b5"}, TS: 5},
		{Key: "t/c", Value: kvstore.Value{"v": "c2"}, TS: 2},
		{Key: "t/c", Value: kvstore.Value{"v": "c9"}, TS: 9},
	}); err != nil {
		t.Fatal(err)
	}
	rows := collectScan(t, s, "t/", 10, 3)
	if len(rows) != 2 || rows[0].Key != "t/a" || rows[1].Key != "t/c" {
		t.Fatalf("scan@3 = %+v, want t/a and t/c", rows)
	}
	if rows[0].TS != 1 || rows[1].TS != 2 || rows[1].Val.Get("v") != "c2" {
		t.Fatalf("scan@3 versions = %+v", rows)
	}
}

// scanOracleUnderChurn is the snapshot-consistency property test: populate
// with seeded random writes/deletes/GC, quiesce, compute the oracle (what a
// naive sort-all read at pin T sees), then page the scan at T with small
// pages while concurrent goroutines write above T, delete rows invisible at
// T, and GC below T. Every page sequence must equal the oracle exactly.
func scanOracleUnderChurn(t *testing.T, s *kvstore.Store) {
	rng := rand.New(rand.NewSource(1137))
	const keys = 400
	const pin = int64(50)
	key := func(i int) string { return fmt.Sprintf("c/k%03d", i) }

	// Phase A: seeded history below and above the pin.
	for ts := int64(1); ts <= pin; ts++ {
		var batch []kvstore.BatchWrite
		for i := 0; i < 6; i++ {
			batch = append(batch, kvstore.BatchWrite{
				Key: key(rng.Intn(keys)), Value: kvstore.Value{"v": fmt.Sprintf("t%d", ts)}, TS: ts,
			})
		}
		// Duplicate keys within one position are illegal upstream; dedup.
		sort.Slice(batch, func(i, j int) bool { return batch[i].Key < batch[j].Key })
		dedup := batch[:1]
		for _, w := range batch[1:] {
			if w.Key != dedup[len(dedup)-1].Key {
				dedup = append(dedup, w)
			}
		}
		if err := s.ApplyBatch(dedup); err != nil {
			t.Fatal(err)
		}
	}
	// Some rows deleted outright pre-pin (scavenge): they must not appear.
	for i := 0; i < keys; i += 17 {
		s.Delete(key(i))
	}

	// Oracle: naive sort-all over per-key point reads at the pin.
	oracle := map[string]string{}
	for i := 0; i < keys; i++ {
		if v, _, err := s.Read(key(i), pin); err == nil {
			oracle[key(i)] = v["v"]
		}
	}

	// Phase B: churn above/around the pin while paging at it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(2000 + w)))
			ts := pin + 1 + int64(w)
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := key(r.Intn(keys))
				switch r.Intn(10) {
				case 0:
					// Delete only rows invisible at the pin (fresh keys the
					// churn itself created, or never-written ones).
					fresh := fmt.Sprintf("c/x%d-%d", w, r.Intn(50))
					s.Delete(fresh)
					s.WriteIdempotent(fresh, kvstore.Value{"v": "churn"}, ts)
				case 1:
					// GC strictly below the pin keeps the pin-visible
					// version, so the oracle is unaffected.
					s.GC(k, pin)
				default:
					s.WriteIdempotent(k, kvstore.Value{"v": "above"}, ts)
				}
				ts += 3
			}
		}(w)
	}

	for _, page := range []int{1, 7, 64} {
		rows := collectScan(t, s, "c/k", page, pin)
		got := map[string]string{}
		for _, r := range rows {
			if _, dup := got[r.Key]; dup {
				t.Errorf("page=%d: key %q twice", page, r.Key)
			}
			got[r.Key] = r.Val.Get("v")
		}
		if len(got) != len(oracle) {
			t.Errorf("page=%d: scan@%d saw %d keys, oracle has %d", page, pin, len(got), len(oracle))
		}
		for k, v := range oracle {
			if got[k] != v {
				t.Errorf("page=%d: %s = %q, oracle %q", page, k, got[k], v)
			}
		}
		for k := range got {
			if _, ok := oracle[k]; !ok {
				t.Errorf("page=%d: phantom key %q not in oracle", page, k)
			}
		}
	}
	close(stop)
	wg.Wait()
}
