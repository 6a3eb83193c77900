package kvstore

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// White-box tests of the ordered index's maintenance machinery; the
// black-box scan contract (paging, snapshot consistency, the oracle
// property under churn) lives in storetest so both engines run it.

// TestIndexFoldPurgesGhostsAndDuplicates deletes and recreates keys, forces
// a fold through the scan path, and checks the rebuilt base is sorted,
// duplicate-free, and ghost-free.
func TestIndexFoldPurgesGhostsAndDuplicates(t *testing.T) {
	s := New()
	for i := 0; i < 600; i++ {
		if _, err := s.Write(fmt.Sprintf("f/k%04d", i), Value{"v": "1"}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 600; i += 2 {
		s.Delete(fmt.Sprintf("f/k%04d", i))
	}
	for i := 0; i < 600; i += 4 {
		if _, err := s.Write(fmt.Sprintf("f/k%04d", i), Value{"v": "2"}, 2); err != nil {
			t.Fatal(err)
		}
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.foldIndexLocked()
		if !sort.StringsAreSorted(sh.base) {
			t.Fatal("base unsorted after fold")
		}
		for i, k := range sh.base {
			if i > 0 && sh.base[i-1] == k {
				t.Fatalf("duplicate %q in base", k)
			}
			if _, live := sh.rows[k]; !live {
				t.Fatalf("ghost %q survived fold", k)
			}
		}
		if len(sh.delta) != 0 || sh.dead != 0 {
			t.Fatalf("fold left delta=%d dead=%d", len(sh.delta), sh.dead)
		}
		sh.mu.Unlock()
	}
	rows, _, err := s.ScanPrefix("f/", "", 0, Latest)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < 600; i++ {
		if i%2 == 1 || i%4 == 0 {
			want++
		}
	}
	if len(rows) != want {
		t.Fatalf("scan found %d rows, want %d", len(rows), want)
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
// unsorted delta buffer churns underneath. The writer gets a budget of rows
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
