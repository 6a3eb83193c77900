package kvstore

// Ordered key iteration (DESIGN.md §16). The store keeps one ordered index
// of its keys beside the hash-sharded row maps (index.go); a scan copies a
// page of keys out of it, then resolves each through its shard map under the
// row lock, exactly as a point read would. A page of L rows costs one seek
// and L lookups, whatever the store holds and whatever was inserted under
// other prefixes since the last scan — the property TestScanPageCostIgnoresHistory
// and the migration backfill regression test pin.

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
	var (
		buf [leafCap]string // a page's keys; stays on the stack unless the page is longer
		out []ScanRow
	)
	for {
		// One extra row resolves `more` exactly. The keys are copied out so
		// that no row or shard lock is taken under the index lock.
		n := min(limit+1-len(out), walkPage)
		keys := s.idx.page(buf[:0], prefix, after, n)
		if out == nil {
			out = make([]ScanRow, 0, len(keys))
		}
		for _, k := range keys {
			after = k
			s.scanExamined.Add(1)
			r := s.lockLive(k)
			if r == nil {
				continue // deleted since the page was read
			}
			if v := r.at(ts); v != nil {
				out = append(out, ScanRow{Key: k, Val: v.val, TS: v.ts})
			}
			r.mu.Unlock()
			if len(out) > limit {
				return out[:limit], true, nil
			}
		}
		if len(keys) < n {
			return out, false, nil
		}
	}
}

// walkPage is the most keys read from the ordered index under one hold of
// its lock: WalkPrefix's and Save's page, and the cap on ScanPrefix's.
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

// ScanExamined returns the cumulative count of index keys ScanPrefix has
// resolved (row-locked and version-checked) over the store's lifetime.
// The migration backfill regression test uses it to pin per-page cost:
// paging a region examines each candidate once, so the total is linear in
// region size rather than quadratic.
func (s *Store) ScanExamined() int64 {
	return s.scanExamined.Load()
}
