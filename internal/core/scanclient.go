package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"paxoscp/internal/network"
)

// Client-side ordered range scans (DESIGN.md §16). Tx.Scan streams one
// group's prefix region page by page at the transaction's read position;
// KV.Scan fans one scan per group out across the placement and merges the
// pages into one ordered result, following migration hints so a scan stays
// correct while a placement grows underneath it.

// ScanEntry is one row of an ordered scan.
type ScanEntry struct {
	Key   string
	Value string
	// MovedIn marks a row served by a group it migrated into at or below
	// the scan's pinned position. KV.Scan's merge prefers such rows when a
	// source leg pinned before the cutover also served the key — the
	// destination's copy includes the final delta.
	MovedIn bool
}

// Scanner is a lazy ordered cursor over one group's rows under a prefix.
// Obtain one with Tx.Scan, then iterate:
//
//	sc := tx.Scan("product-")
//	for sc.Next(ctx) {
//		use(sc.Key(), sc.Value())
//	}
//	if sc.Err() != nil { ... }
//
// Every page is served at the transaction's read position — the first page
// resolves a lazy position exactly like a first Read — so a multi-page scan
// observes one snapshot: rows written after the scan began are invisible,
// rows it has not reached yet cannot disappear (the serving side pins the
// position against compaction per page). A Scanner is not safe for
// concurrent use, and scanned rows do NOT join the transaction's optimistic
// read set: committing writes validates only keys read with Read/ReadMulti,
// not the scanned range (predicate locks are out of scope, as in the paper's
// row-level conflict model).
type Scanner struct {
	tx     *Tx
	prefix string

	// PageSize overrides the rows-per-request page (0 means the server
	// default). Set it before the first Next; tests use tiny pages to cross
	// page boundaries cheaply.
	PageSize int

	// StartAfter, when set before the first Next, starts the scan just past
	// the given key instead of at the beginning of the prefix region: keys
	// <= StartAfter are skipped, including the transaction's own buffered
	// writes. YCSB-style scans (start key + row count) pair it with a
	// row-count bound on the consumer side.
	StartAfter string

	started   bool
	cursor    string
	hasCursor bool
	exhausted bool // no more wire pages

	page []ScanEntry
	idx  int

	// overlay holds the transaction's own buffered writes under the prefix,
	// sorted; the merge emits them in place of (or between) served rows, so
	// a transaction scanning a range it wrote sees its writes (property A1).
	overlay []string
	oidx    int

	cur     ScanEntry
	err     error
	dests   map[string]bool
	pending bool
}

// Scan begins an ordered scan of the keys with the given prefix in the
// transaction's group. The cursor is lazy: no message is sent until the
// first Next.
func (t *Tx) Scan(prefix string) *Scanner {
	sc := &Scanner{tx: t, prefix: prefix}
	if t.done {
		sc.err = errTxDone
		return sc
	}
	for k := range t.writes {
		if strings.HasPrefix(k, prefix) {
			sc.overlay = append(sc.overlay, k)
		}
	}
	sort.Strings(sc.overlay)
	return sc
}

// Next advances the cursor, fetching the next page when the buffered one is
// consumed. It returns false at the end of the range or on error (check Err).
func (sc *Scanner) Next(ctx context.Context) bool {
	if sc.err != nil {
		return false
	}
	if !sc.started {
		sc.started = true
		if sc.StartAfter != "" {
			sc.cursor, sc.hasCursor = sc.StartAfter, true
			for sc.oidx < len(sc.overlay) && sc.overlay[sc.oidx] <= sc.StartAfter {
				sc.oidx++
			}
		}
	}
	for {
		if sc.idx >= len(sc.page) && !sc.exhausted {
			var ok bool
			if sc.page, ok = sc.fetch(ctx, sc.page[:0]); !ok {
				return false
			}
			sc.idx = 0
			continue // a progress page may carry zero rows
		}
		wireOK := sc.idx < len(sc.page)
		ovOK := sc.oidx < len(sc.overlay)
		switch {
		case wireOK && ovOK:
			w, ok := sc.page[sc.idx], sc.overlay[sc.oidx]
			if ok < w.Key {
				sc.cur = ScanEntry{Key: ok, Value: sc.tx.writes[ok]}
				sc.oidx++
			} else if ok == w.Key {
				// The transaction's own write shadows the stored row (A1).
				sc.cur = ScanEntry{Key: ok, Value: sc.tx.writes[ok], MovedIn: w.MovedIn}
				sc.oidx++
				sc.idx++
			} else {
				sc.cur = w
				sc.idx++
			}
			return true
		case wireOK:
			sc.cur = sc.page[sc.idx]
			sc.idx++
			return true
		case ovOK:
			// An overlay key beyond the last served row may only be emitted
			// once the wire stream is exhausted — otherwise a later page
			// could carry a smaller key.
			if !sc.exhausted {
				continue
			}
			k := sc.overlay[sc.oidx]
			sc.cur = ScanEntry{Key: k, Value: sc.tx.writes[k]}
			sc.oidx++
			return true
		default:
			return false
		}
	}
}

// fetch pulls one wire page and appends its rows to page, grown once to
// hold them; false means sc.err is set.
func (sc *Scanner) fetch(ctx context.Context, page []ScanEntry) ([]ScanEntry, bool) {
	t := sc.tx
	resp, err := t.client.sendPreferLocal(ctx, network.Message{
		Kind: network.KindScan, Group: t.group, Value: sc.prefix,
		TS: t.readPos, Pos: int64(sc.PageSize), Key: sc.cursor, Found: sc.hasCursor,
	})
	if err != nil {
		sc.err = fmt.Errorf("core: scan %q: %w", sc.prefix, err)
		return page, false
	}
	if len(resp.Vals) != len(resp.Keys) {
		sc.err = fmt.Errorf("core: scan %q reply shape: %d keys, %d vals", sc.prefix, len(resp.Keys), len(resp.Vals))
		return page, false
	}
	if !t.resolved() {
		t.readPos = resp.TS // first page pins the scan; later pages reuse it
	}
	page = slices.Grow(page, len(resp.Keys))
	for i, k := range resp.Keys {
		page = append(page, ScanEntry{
			Key: k, Value: resp.Vals[i],
			MovedIn: i < len(resp.Founds) && resp.Founds[i],
		})
	}
	if resp.Value != "" {
		if sc.dests == nil {
			sc.dests = make(map[string]bool)
		}
		for _, d := range strings.Split(resp.Value, ",") {
			sc.dests[d] = true
		}
	}
	if resp.Combined {
		sc.pending = true
	}
	if resp.Found {
		sc.cursor, sc.hasCursor = resp.Key, true
	} else {
		sc.exhausted = true
	}
	return page, true
}

// Key returns the current row's key (valid after a true Next).
func (sc *Scanner) Key() string { return sc.cur.Key }

// Value returns the current row's value (valid after a true Next).
func (sc *Scanner) Value() string { return sc.cur.Value }

// Entry returns the current row (valid after a true Next).
func (sc *Scanner) Entry() ScanEntry { return sc.cur }

// Err returns the first error the cursor hit, if any.
func (sc *Scanner) Err() error { return sc.err }

// Dests returns the destination groups the served pages named for ranges
// departed below the scan's position, sorted. A caller that wants the moved
// rows too must scan those groups as well — KV.Scan does this automatically.
func (sc *Scanner) Dests() []string {
	out := make([]string, 0, len(sc.dests))
	for g := range sc.dests {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Pending reports whether any served page flagged an inbound range prepared
// but unopened at the scan's position: rows of that range were hidden, and
// the group should be re-scanned after its cutover.
func (sc *Scanner) Pending() bool { return sc.pending }

// --- routed fan-out ---------------------------------------------------------

// ScanResult is the merged result of a routed KV.Scan.
type ScanResult struct {
	// Entries holds every live row under the prefix, in ascending key
	// order, each key exactly once.
	Entries []ScanEntry
	// Positions reports the log position each group's leg was served at,
	// keyed by group — per-group snapshots, exactly as in MultiRead
	// (group-local serializability, §2.1).
	Positions map[string]int64
}

// scanLeg is one group's materialized scan: entries must be collected before
// the cross-group merge because a placement's move sets are hash-scattered
// through the key order — any key of any leg may interleave anywhere.
type scanLeg struct {
	group   string
	entries []ScanEntry
	pos     int64
	dests   []string
	pending bool
	err     error
}

// Scan reads every key with the given prefix across the placement: one
// ordered scan per group, run concurrently (fanOut), merged into one
// ascending key order. Migration hints are followed under the same budget as
// ReadMulti's redirects: each round's next groups come from scanRound, a
// round that adds a destination spends a hop and one that only waits spends
// a wait, and any leg failure fails the whole scan naming the groups — a
// partial result would silently narrow the caller's view. When source and
// destination legs pin on opposite sides of a cutover and both serve a key,
// the merge keeps the destination's copy (marked MovedIn — it includes the
// final delta).
func (kv *KV) Scan(ctx context.Context, prefix string) (*ScanResult, error) {
	legs := make(map[string]scanLeg)
	hinted := make(map[string]bool)
	budget := kv.redirects("scan")
	for next := kv.router.Groups(); len(next) > 0; {
		round := make([]scanLeg, len(next))
		fanOut(len(next), func(i int) { round[i] = kv.scanGroup(ctx, next[i], prefix) })
		var failed map[string]error
		for _, l := range round {
			if l.err != nil {
				if failed == nil {
					failed = make(map[string]error)
				}
				failed[l.group] = l.err
				continue
			}
			legs[l.group] = l
			for _, d := range l.dests {
				hinted[d] = true
			}
		}
		if failed != nil {
			return nil, unavailable("scan", len(round), failed)
		}
		var hop, wait error
		next, hop, wait = scanRound(legs, hinted)
		if err := budget.settle(ctx, hop, wait); err != nil {
			return nil, err
		}
	}
	return mergeScanLegs(legs), nil
}

// The causes scanRound gives a round, for the budget's error: a scan leg
// carries no refusal.
var (
	errScanDestination = errors.New("a leg named a destination not scanned yet")
	errScanMigrating   = errors.New("a migration is not settled at a scanned group")
)

// scanRound decides a routed scan's next round from legs, the newest leg of
// each group, and hinted, every destination a leg has named; next is empty
// when the scan is done. A pending leg hid an inbound range mid-cutover: it
// is scanned again, and the round waits. A hinted destination with no leg is
// scanned: the round hops. A hinted destination whose leg saw no migration —
// nothing pending, no row moved in — was pinned before its HandoffPrepare,
// where a departed row is in no leg at all: it is scanned again at a later
// pin, and the round waits. That test is per group, not per handoff, which
// TestScanStaleDestinationLeg shows too weak. hop and wait are the round's
// causes for settle, or nil.
func scanRound(legs map[string]scanLeg, hinted map[string]bool) (next []string, hop, wait error) {
	for g, l := range legs {
		if l.pending {
			next, wait = append(next, g), errScanMigrating
		}
	}
	for d := range hinted {
		switch l, have := legs[d]; {
		case !have:
			next, hop = append(next, d), errScanDestination
		case !l.pending && !slices.ContainsFunc(l.entries, func(e ScanEntry) bool { return e.MovedIn }):
			next, wait = append(next, d), errScanMigrating
		}
	}
	slices.Sort(next)
	return next, hop, wait
}

// scanGroup materializes one group's leg with a fresh read-only transaction,
// its rows copied once, from each page's reply into the leg.
func (kv *KV) scanGroup(ctx context.Context, group, prefix string) scanLeg {
	leg := scanLeg{group: group}
	tx, err := kv.client.Begin(ctx, group)
	if err != nil {
		leg.err = err
		return leg
	}
	defer tx.Abort()
	sc := tx.Scan(prefix)
	for !sc.exhausted {
		// The transaction has no writes to overlay: its pages are the leg.
		var ok bool
		if leg.entries, ok = sc.fetch(ctx, leg.entries); !ok {
			leg.err = sc.err
			return leg
		}
	}
	leg.pos = tx.ReadPos()
	leg.dests = sc.Dests()
	leg.pending = sc.Pending()
	return leg
}

// mergeScanLegs merges the per-group legs into one ascending key order, each
// key exactly once. Each leg is ascending already, so the merge is k-way:
// it takes the least key at the legs' heads, copies that row once into the
// result and moves past the key in every leg that has it. A key served by two
// legs (source pinned before a cutover, destination after) keeps the MovedIn
// copy; among equals the lexicographically smallest group wins, making the
// merge deterministic.
func mergeScanLegs(legs map[string]scanLeg) *ScanResult {
	out := &ScanResult{Positions: make(map[string]int64, len(legs))}
	type head struct {
		group string
		rest  []ScanEntry
	}
	var buf [8]head // up to eight legs' heads need no allocation
	heads, rows := buf[:0], 0
	for _, leg := range legs {
		out.Positions[leg.group] = leg.pos
		if len(leg.entries) > 0 {
			heads = append(heads, head{leg.group, leg.entries})
			rows += len(leg.entries)
		}
	}
	slices.SortFunc(heads, func(a, b head) int { return strings.Compare(a.group, b.group) })
	out.Entries = make([]ScanEntry, 0, rows)
	for len(heads) > 0 {
		best := &heads[0].rest[0]
		for _, h := range heads[1:] {
			if e := &h.rest[0]; e.Key < best.Key || e.Key == best.Key && e.MovedIn && !best.MovedIn {
				best = e
			}
		}
		out.Entries = append(out.Entries, *best)
		key, live := best.Key, heads[:0]
		for _, h := range heads {
			if h.rest[0].Key == key {
				h.rest = h.rest[1:]
			}
			if len(h.rest) > 0 {
				live = append(live, h)
			}
		}
		heads = live
	}
	return out
}
