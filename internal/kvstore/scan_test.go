package kvstore

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
)

// Tests of the scan path over the store-wide index; the tree itself is
// tested in index_test.go, and the black-box scan contract (paging, snapshot
// consistency, the oracle property under churn) lives in storetest so both
// engines run it.

// TestScanAfterDeleteRecreateChurn deletes, recreates and deletes again, then
// pages the region at every page size from 1 to past its length: each must
// return exactly the live keys, once, sorted — no ghost of a deleted row and
// no second copy of a recreated one.
func TestScanAfterDeleteRecreateChurn(t *testing.T) {
	s := New()
	const n = 600
	key := func(i int) string { return fmt.Sprintf("f/k%04d", i) }
	write := func(i int, ts int64) {
		t.Helper()
		if _, err := s.Write(key(i), Value{"v": "x"}, ts); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		write(i, 1)
	}
	for i := 0; i < n; i += 2 {
		s.Delete(key(i))
	}
	for i := 0; i < n; i += 4 {
		write(i, 2)
	}
	for i := 0; i < n; i += 8 {
		s.Delete(key(i))
	}
	var want []string
	for i := 0; i < n; i++ {
		if i%2 == 1 || (i%4 == 0 && i%8 != 0) {
			want = append(want, key(i))
		}
	}
	for page := 1; page <= len(want)+1; page++ {
		var got []string
		for after, more := "", true; more; {
			rows, m, err := s.ScanPrefix("f/", after, page, Latest)
			if err != nil {
				t.Fatal(err)
			}
			if len(rows) > page || (m && len(rows) < page) {
				t.Fatalf("page=%d: %d rows, more=%v", page, len(rows), m)
			}
			for _, r := range rows {
				got = append(got, r.Key)
				after = r.Key
			}
			more = m
		}
		if !slices.Equal(got, want) {
			t.Fatalf("page=%d: %d keys, want the %d live ones in order; got %v", page, len(got), len(want), got)
		}
	}
}

// TestScanPageCostIgnoresHistory: what a page costs is what it returns. After
// 20 000 rows were created under another prefix since the last scan — the log
// and acceptor rows of a run's commits — a 50-row page looks at just as many
// index entries as before: the one index page its rows fit in, and a seek.
// (With a sorted base and an unsorted delta per shard, the same page compared
// every delta key of every shard.)
func TestScanPageCostIgnoresHistory(t *testing.T) {
	s := New()
	for i := 0; i < 20000; i++ {
		if _, err := s.Write(fmt.Sprintf("data/g/k%05d", i), Value{"v": "x"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	page := func() int64 {
		t.Helper()
		visited, examined := s.idx.visited.Load(), s.ScanExamined()
		rows, more, err := s.ScanPrefix("data/g/", "data/g/k07000", 50, Latest)
		if err != nil || !more || len(rows) != 50 {
			t.Fatalf("page: %d rows, more=%v, err=%v", len(rows), more, err)
		}
		if got := s.ScanExamined() - examined; got != 51 {
			t.Fatalf("page examined %d rows, want 50 and the lookahead", got)
		}
		return s.idx.visited.Load() - visited
	}
	before := page()
	for i := 0; i < 20000; i++ {
		if err := s.ApplyBatch([]BatchWrite{{Key: PosKey("log/", "g", int64(i)), Value: Value{"e": "x"}, TS: int64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	after := page()
	// The 51 keys read as one index page of leafCap, the entry that ends it,
	// and a seek of one entry per level.
	if budget := int64(leafCap + 16); before > budget || after != before {
		t.Fatalf("a 50-row page visited %d index entries, %d after 20000 unrelated inserts; want the same, at most %d", before, after, budget)
	}
}

// TestScanRacesCreatesAndDeletes runs pages against concurrent ApplyBatch
// creates and Deletes of the keys being scanned — under -race, and to the end:
// creates and deletes take shard lock, then index lock; a scan that resolved
// rows under the index lock would take them the other way round and hang
// here. Every page must stay sorted and inside its prefix.
func TestScanRacesCreatesAndDeletes(t *testing.T) {
	s := New()
	const keys, batches = 512, 400
	key := func(i int) string { return fmt.Sprintf("r/k%03d", i) }
	var creators, deleters sync.WaitGroup
	created := make(chan struct{}) // closed when the creators are through
	for w := int64(0); w < 2; w++ {
		creators.Add(1)
		go func(seed int64) {
			defer creators.Done()
			rng := rand.New(rand.NewSource(seed))
			for ts := int64(1); ts <= batches; ts++ {
				batch := make([]BatchWrite, 8)
				for i := range batch {
					batch[i] = BatchWrite{Key: key(rng.Intn(keys)), Value: Value{"v": "x"}, TS: ts, Replace: true}
				}
				if err := s.ApplyBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		deleters.Add(1)
		go func(seed int64) {
			defer deleters.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for {
				select {
				case <-created:
					return
				default:
					s.Delete(key(rng.Intn(keys)))
				}
			}
		}(w)
	}
	go func() { creators.Wait(); close(created) }()
	for scanning := true; scanning; {
		select {
		case <-created:
			scanning = false // one more pass, over the quiet store
		default:
		}
		for after, more := "", true; more; {
			rows, m, err := s.ScanPrefix("r/", after, 37, Latest)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.Key <= after || !strings.HasPrefix(r.Key, "r/") {
					t.Fatalf("page holds %q after %q", r.Key, after)
				}
				after = r.Key
			}
			more = m
		}
	}
	deleters.Wait()
	// Quiesced: the index and the shard maps hold the same keys.
	if got := len(scanKeys(t, s, "")); got != s.Len() {
		t.Fatalf("index pages %d keys, the shard maps hold %d", got, s.Len())
	}
}

// TestScanExaminedLinear pins the index's cost model: paging an R-row
// region examines each candidate once (plus the one-row lookahead per
// page), so the examined total is linear in R and independent of page
// count — the property the migration-backfill fix relies on.
func TestScanExaminedLinear(t *testing.T) {
	s := New()
	const n = 2000
	for i := 0; i < n; i++ {
		if _, err := s.Write(fmt.Sprintf("e/k%05d", i), Value{"v": "1"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	before := s.ScanExamined()
	after := ""
	pages := 0
	for {
		rows, more, err := s.ScanPrefix("e/", after, 64, Latest)
		if err != nil {
			t.Fatal(err)
		}
		pages++
		if len(rows) > 0 {
			after = rows[len(rows)-1].Key
		}
		if !more {
			break
		}
	}
	examined := s.ScanExamined() - before
	// Each row consumed once, plus up to one lookahead row per page that is
	// re-examined by the next page.
	budget := int64(n + pages + 64)
	if examined > budget {
		t.Fatalf("examined %d candidates for %d rows over %d pages (budget %d): paging is re-scanning",
			examined, n, pages, budget)
	}
}

// TestScanConcurrentCreateSorted hammers row creation while scanning at
// Latest: every page must stay sorted and duplicate-free even as the
// index churns underneath. The writer gets a budget of rows
// per scan round rather than free rein: unthrottled, it outran a scanner
// starved of CPU, every round then walked a bigger table, and the test took
// a minute or more on a loaded machine instead of a tenth of a second.
func TestScanConcurrentCreateSorted(t *testing.T) {
	const rounds, rowsPerRound = 20, 200
	s := New()
	budget := make(chan struct{}, rounds) // one token per scan round; sized to the sends
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(7))
		ts := int64(0)
		for range budget {
			for i := 0; i < rowsPerRound; i++ {
				ts++
				s.WriteIdempotent(fmt.Sprintf("s/r%06d", rng.Intn(100000)), Value{"v": "x"}, ts)
			}
		}
	}()
	for round := 0; round < rounds; round++ {
		budget <- struct{}{}
		after := ""
		prev := ""
		for {
			rows, more, err := s.ScanPrefix("s/", after, 97, Latest)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rows {
				if r.Key <= prev {
					t.Fatalf("unsorted/duplicate page: %q after %q", r.Key, prev)
				}
				prev = r.Key
				after = r.Key
			}
			if !more {
				break
			}
		}
	}
	close(budget)
	<-done
}

// BenchmarkScanPrefix: a 50-row page of a 20 000-row region, after so many
// rows were created under another prefix since the region was last scanned.
// The three should read the same.
func BenchmarkScanPrefix(b *testing.B) {
	for _, unrelated := range []int{0, 500, 16000} {
		b.Run(fmt.Sprintf("unrelated=%d", unrelated), func(b *testing.B) {
			s := New()
			for i := 0; i < 20000; i++ {
				s.WriteIdempotent(fmt.Sprintf("data/g/k%05d", i), Value{"v": "value"}, 1)
			}
			page := func() {
				rows, _, err := s.ScanPrefix("data/g/", "data/g/k07000", 50, Latest)
				if err != nil || len(rows) != 50 {
					b.Fatalf("%d rows, %v", len(rows), err)
				}
			}
			page()
			for i := 0; i < unrelated; i++ {
				s.WriteIdempotent(PosKey("log/", "g", int64(i)), Value{"e": "entry"}, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				page()
			}
		})
	}
}
