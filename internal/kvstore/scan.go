package kvstore

import (
	"sort"
	"strings"
)

// Ordered key iteration (DESIGN.md §16). Each shard maintains a sorted
// index of its keys beside the hash map: `base` is sorted and may contain
// ghosts (keys whose row was deleted after the last merge), `delta` is an
// unsorted append-only buffer of keys inserted since, and `dead` counts
// deletes since. Inserts stay O(1); scans merge base and a sorted snapshot
// of delta on the fly, using the rows map as the liveness truth. The buffers
// fold into base amortized — triggered by inserts when delta outgrows
// indexDeltaCap, and by scans, which fold a delta above scanDeltaCap (or a
// ghost-heavy base) before walking so no page ever sorts an unbounded
// buffer. A page of L rows costs O(L log) plus amortized maintenance,
// independent of store size — the property the migration backfill
// regression test pins.

const (
	// indexDeltaCap bounds the unsorted insert buffer on the insert path:
	// past it (and once it is a quarter of base, so small stores don't merge
	// constantly) the inserting writer folds the buffer. Amortized cost per
	// insert stays O(1) words of merge work.
	indexDeltaCap = 4096
	// scanDeltaCap is the largest delta a scan will sort on the fly; beyond
	// it the scan folds the buffer first so page cost never inherits a big
	// backlog of unsorted inserts.
	scanDeltaCap = 512
	// indexDeadMin is the ghost count below which scans never bother
	// rebuilding base, whatever the ratio.
	indexDeadMin = 256
)

// noteInsertLocked records a newly created row in the ordered index.
// Caller must hold sh.mu (write).
func (sh *shard) noteInsertLocked(key string) {
	sh.delta = append(sh.delta, key)
	if len(sh.delta) >= indexDeltaCap && len(sh.delta)*4 >= len(sh.base) {
		sh.foldIndexLocked()
	}
}

// noteDeleteLocked records a row deletion (a ghost now sits in base or
// delta until the next fold). Caller must hold sh.mu (write).
func (sh *shard) noteDeleteLocked() {
	sh.dead++
}

// foldIndexLocked merges delta into base, dropping ghosts and duplicates
// (a key deleted and recreated between folds appears in both buffers).
// The rows map is the liveness truth. Caller must hold sh.mu (write).
func (sh *shard) foldIndexLocked() {
	if len(sh.delta) == 0 && sh.dead == 0 {
		return
	}
	sort.Strings(sh.delta)
	merged := make([]string, 0, len(sh.base)+len(sh.delta))
	i, j := 0, 0
	for i < len(sh.base) || j < len(sh.delta) {
		var k string
		switch {
		case i >= len(sh.base):
			k = sh.delta[j]
			j++
		case j >= len(sh.delta):
			k = sh.base[i]
			i++
		case sh.base[i] <= sh.delta[j]:
			k = sh.base[i]
			i++
		default:
			k = sh.delta[j]
			j++
		}
		if len(merged) > 0 && merged[len(merged)-1] == k {
			continue
		}
		if _, live := sh.rows[k]; !live {
			continue
		}
		merged = append(merged, k)
	}
	sh.base, sh.delta, sh.dead = merged, nil, 0
}

// scanCand is one index candidate a gather produced: a key in range and the
// row pointer pinned under the shard lock. Liveness and visibility are
// resolved later under the row lock.
type scanCand struct {
	key string
	r   *row
}

// gatherScan collects up to max live-at-gather candidates whose keys carry
// prefix and sort strictly after `after`, in ascending order, plus whether
// further in-range index entries remained beyond the last one returned.
// Ghosts (index entries whose row left the map) are skipped without
// counting; the dead-ratio fold below bounds how many can accumulate.
func (sh *shard) gatherScan(prefix, after string, max int) ([]scanCand, bool) {
	sh.mu.RLock()
	if len(sh.delta) >= scanDeltaCap || (sh.dead >= indexDeadMin && sh.dead*2 >= len(sh.base)) {
		sh.mu.RUnlock()
		sh.mu.Lock()
		sh.foldIndexLocked()
		sh.mu.Unlock()
		sh.mu.RLock()
	}
	defer sh.mu.RUnlock()

	// Sorted snapshot of the in-range slice of delta.
	var extra []string
	for _, k := range sh.delta {
		if k > after && strings.HasPrefix(k, prefix) {
			extra = append(extra, k)
		}
	}
	sort.Strings(extra)

	// First base entry in range: >= prefix, and > after when after is inside
	// the prefix region. Prefixed keys are contiguous in sorted order (the
	// interval [prefix, succ(prefix))), so the walk below stops at the first
	// non-prefixed entry.
	i := sort.SearchStrings(sh.base, prefix)
	if after >= prefix {
		i = sort.Search(len(sh.base), func(i int) bool { return sh.base[i] > after })
	}

	var out []scanCand
	last := ""
	take := func(k string) bool { // returns false when the page is full
		if k == last {
			return true
		}
		last = k
		if r, live := sh.rows[k]; live {
			out = append(out, scanCand{key: k, r: r})
			return len(out) < max
		}
		return true
	}
	j := 0
	more := false
	for i < len(sh.base) || j < len(extra) {
		var k string
		switch {
		case i >= len(sh.base):
			k = extra[j]
			j++
		case !strings.HasPrefix(sh.base[i], prefix):
			i = len(sh.base) // past the contiguous prefix region
			continue
		case j >= len(extra) || sh.base[i] <= extra[j]:
			k = sh.base[i]
			i++
		default:
			k = extra[j]
			j++
		}
		if !take(k) {
			// Page full; anything left in range means the shard has more.
			more = i < len(sh.base) && strings.HasPrefix(sh.base[i], prefix) || j < len(extra)
			break
		}
	}
	return out, more
}

// ScanRow is one visible row returned by ScanPrefix.
type ScanRow struct {
	Key string
	Val Packed // stored contents: immutable, shared with the store
	TS  int64
}

// ScanPrefix returns up to limit rows whose keys carry prefix and sort
// strictly after `after` (the resume cursor; pass "" to start at the
// prefix), in ascending key order, each resolved at timestamp ts exactly as
// Read would (ts < 0 reads the latest version). Rows with no version at or
// before ts — and deleted rows — are skipped. The second result reports
// whether more rows may follow (pass the last returned key as the next
// page's cursor). limit <= 0 means no limit.
//
// Pages are snapshot-consistent at ts under the store's watermark
// discipline: provided every write with a version timestamp <= ts completed
// before the scan began (the transaction tier serves scans at an
// applied-watermark position, which only advances after a batch fully
// lands), a page sequence at pinned ts returns exactly the keys visible at
// ts, each once, regardless of concurrent writers at higher timestamps.
// Scans at Latest make no snapshot claim — only that each returned page is
// sorted and duplicate-free. Concurrent Delete (a scavenge operation, not a
// versioned write) races non-deterministically; the service layer pins
// compaction below an in-flight scan's position so scavenge never removes a
// row the scan could still return.
func (s *Store) ScanPrefix(prefix, after string, limit int, ts int64) ([]ScanRow, bool, error) {
	if s.isClosed() {
		return nil, false, ErrClosed
	}
	if limit <= 0 {
		limit = int(^uint(0) >> 2) // effectively unbounded
	}
	want := limit + 1 // one extra resolves `more` exactly
	var out []ScanRow
	for {
		rem := want - len(out)
		var merged []scanCand
		bound, hasBound := "", false
		for _, sh := range s.shards {
			cs, more := sh.gatherScan(prefix, after, rem)
			if more {
				// cs is non-empty when more is set: the gather only truncates
				// after returning at least one candidate.
				if last := cs[len(cs)-1].key; !hasBound || last < bound {
					bound, hasBound = last, true
				}
			}
			merged = append(merged, cs...)
		}
		// Shards partition the key space, so the concatenation has no
		// cross-shard duplicates; one sort yields the global order.
		sort.Slice(merged, func(i, j int) bool { return merged[i].key < merged[j].key })
		for _, c := range merged {
			if hasBound && c.key > bound {
				// A truncated shard may hold keys below this one that its
				// gather did not reach; re-gather past the bound instead.
				break
			}
			after = c.key
			s.scanExamined.Add(1)
			r := c.r
			r.mu.Lock()
			for r.gone {
				// Deleted (and possibly recreated) since the gather pinned
				// it: re-resolve through the map like lockPinned, but
				// without creating.
				r.mu.Unlock()
				if r = s.getRow(c.key, false); r == nil {
					break
				}
				r.mu.Lock()
			}
			if r == nil {
				continue
			}
			if v := r.at(ts); v != nil {
				out = append(out, ScanRow{Key: c.key, Val: v.val, TS: v.ts})
			}
			r.mu.Unlock()
			if len(out) == want {
				return out[:limit], true, nil
			}
		}
		if !hasBound {
			return out, false, nil
		}
		if after < bound {
			after = bound
		}
	}
}

// walkPage sizes the pages WalkPrefix reads the ordered index in.
const walkPage = 512

// WalkPrefix calls fn with every row under prefix visible at ts, in
// ascending key order, reading the ordered index one ScanPrefix page at a
// time — so a walk costs O(rows) and holds no lock between pages, whatever
// the store's size. fn may mutate the store (compaction deletes rows as it
// walks); per-page semantics are ScanPrefix's.
func (s *Store) WalkPrefix(prefix string, ts int64, fn func(ScanRow)) error {
	after := ""
	for {
		rows, more, err := s.ScanPrefix(prefix, after, walkPage, ts)
		if err != nil {
			return err
		}
		for _, row := range rows {
			fn(row)
		}
		if !more {
			return nil
		}
		after = rows[len(rows)-1].Key
	}
}

// ScanExamined returns the cumulative count of index candidates ScanPrefix
// has resolved (row-locked and version-checked) over the store's lifetime.
// The migration backfill regression test uses it to pin per-page cost:
// paging a region examines each candidate once, so the total is linear in
// region size rather than quadratic.
func (s *Store) ScanExamined() int64 {
	return s.scanExamined.Load()
}
