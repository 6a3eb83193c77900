package kvstore

import "iter"

// Ordered key iteration (DESIGN.md §16). The store keeps one ordered index
// of its keys beside the hash-sharded row maps (index.go); Rows, the one walk
// of it, copies a page of keys out of it, then resolves each through its
// shard map under the row lock, exactly as a point read would. The consumer
// cuts its own page by leaving the loop, so L rows cost L lookups and a seek
// per index page, with at most one page copied ahead, whatever the store
// holds and whatever was inserted under other prefixes since the last walk —
// the property TestScanPageCostIgnoresHistory and the migration backfill
// regression test pin.

// ScanRow is one visible row yielded by Rows.
type ScanRow struct {
	Key string
	Val Packed // stored contents: immutable, shared with the store
	TS  int64
}

// Rows yields the rows whose keys carry prefix and sort strictly after
// `after` (the resume cursor; pass "" to start at the prefix), in ascending
// key order, each resolved at timestamp ts exactly as Read would (ts < 0
// reads the latest version). Rows with no version at or before ts — and
// deleted rows — are skipped. Keys leave the index leafCap at a time, so no
// row lock is taken under the index lock, and no lock is held while a row is
// yielded: the loop body may mutate the store (compaction deletes rows as it
// walks). A closed store yields ErrClosed once, at the start or between
// index pages, and the walk ends.
//
// A walk at ts is snapshot-consistent under the store's watermark
// discipline: provided every write with a version timestamp <= ts completed
// before the walk began (the transaction tier reads at an applied-watermark
// position, which only advances after a batch fully lands), a sequence of
// walks at pinned ts, each resumed after the last key the one before
// yielded, returns exactly the keys visible at ts, each once, regardless of
// concurrent writers at higher timestamps. Walks at Latest make no snapshot
// claim — only that the keys come sorted and duplicate-free. Concurrent
// Delete (a scavenge operation, not a versioned write) races
// non-deterministically; the service layer pins compaction below an
// in-flight scan's position so scavenge never removes a row the scan could
// still return.
func (s *Store) Rows(prefix, after string, ts int64) iter.Seq2[ScanRow, error] {
	return func(yield func(ScanRow, error) bool) {
		var buf [leafCap]string // one index page; stays on the stack
		for {
			if s.isClosed() {
				yield(ScanRow{}, ErrClosed)
				return
			}
			keys := s.idx.page(buf[:0], prefix, after, leafCap)
			for _, k := range keys {
				s.scanExamined.Add(1)
				r := s.lockLive(k)
				if r == nil {
					continue // deleted since the page was read
				}
				row := ScanRow{Key: k}
				v := r.at(ts)
				if v != nil {
					row.Val, row.TS = v.val, v.ts
				}
				r.mu.Unlock()
				if v != nil && !yield(row, nil) {
					return
				}
			}
			if len(keys) < leafCap {
				return
			}
			after = keys[leafCap-1]
		}
	}
}

// ScanPrefix collects up to limit rows of Rows(prefix, after, ts); limit <= 0
// means no limit. The second result reports whether more rows follow: pass
// the last returned key as the next page's cursor.
func (s *Store) ScanPrefix(prefix, after string, limit int, ts int64) ([]ScanRow, bool, error) {
	var out []ScanRow
	if limit > 0 {
		out = make([]ScanRow, 0, min(limit, leafCap))
	}
	for row, err := range s.Rows(prefix, after, ts) {
		if err != nil {
			return nil, false, err
		}
		if limit > 0 && len(out) == limit {
			return out, true, nil
		}
		out = append(out, row)
	}
	return out, false, nil
}

// ScanExamined returns the cumulative count of index keys Rows has resolved
// (row-locked and version-checked) over the store's lifetime. The migration
// backfill regression test uses it to pin per-page cost: paging a region
// examines each candidate once, so the total is linear in region size rather
// than quadratic.
func (s *Store) ScanExamined() int64 {
	return s.scanExamined.Load()
}
