package core

import (
	"context"
	"fmt"
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
	sc := &Scanner{tx: t, prefix: prefix, dests: make(map[string]bool)}
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
			if !sc.fetch(ctx) {
				return false
			}
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

// fetch pulls one wire page; false means sc.err is set.
func (sc *Scanner) fetch(ctx context.Context) bool {
	t := sc.tx
	resp, err := t.client.sendPreferLocal(ctx, network.Message{
		Kind: network.KindScan, Group: t.group, Value: sc.prefix,
		TS: t.readPos, Pos: int64(sc.PageSize), Key: sc.cursor, Found: sc.hasCursor,
	})
	if err != nil {
		sc.err = fmt.Errorf("core: scan %q: %w", sc.prefix, err)
		return false
	}
	if !t.resolved() {
		t.readPos = resp.TS // first page pins the scan; later pages reuse it
	}
	sc.page, sc.idx = sc.page[:0], 0
	for i, k := range resp.Keys {
		sc.page = append(sc.page, ScanEntry{
			Key: k, Value: resp.Vals[i],
			MovedIn: i < len(resp.Founds) && resp.Founds[i],
		})
	}
	if resp.Value != "" {
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
	return true
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
// ordered scan per group, run concurrently, merged into one ascending key
// order. Migration hints are followed exactly like ReadMulti's redirects: a
// leg naming departed-range destinations adds those groups' legs (bounded by
// kvMovedHops rounds), a leg flagging a pending inbound range is retried
// after a short wait (bounded by kvMigratingRetries), and any leg failure
// fails the whole scan naming the groups — a partial result would silently
// narrow the caller's view. When source and destination legs pin on opposite
// sides of a cutover and both serve a key, the merge keeps the destination's
// copy (marked MovedIn — it includes the final delta).
func (kv *KV) Scan(ctx context.Context, prefix string) (*ScanResult, error) {
	legs := make(map[string]scanLeg)
	// hinted accumulates every destination a leg named across rounds: a hint
	// means a row of the prefix departed there, so that group's leg must
	// exist AND must itself observe the migration (pending inbound range or
	// rows marked moved-in). A destination leg that shows neither was served
	// by a replica whose pin predates its HandoffPrepare — rescanning it pins
	// a later position, closing the window where a row would appear in no
	// leg at all (skipped at the source, invisible at the destination).
	hinted := make(map[string]bool)
	inboundAware := func(l scanLeg) bool {
		if l.pending {
			return true
		}
		for _, e := range l.entries {
			if e.MovedIn {
				return true
			}
		}
		return false
	}
	pendingSet := make(map[string]bool)
	for _, g := range kv.router.Groups() {
		pendingSet[g] = true
	}
	hops, waits := 0, 0
	for len(pendingSet) > 0 {
		todo := make([]string, 0, len(pendingSet))
		for g := range pendingSet {
			todo = append(todo, g)
		}
		sort.Strings(todo)
		pendingSet = make(map[string]bool)

		results := make(chan scanLeg, len(todo))
		for _, g := range todo {
			go func(group string) { results <- kv.scanGroup(ctx, group, prefix) }(g)
		}
		var failed []string
		errByGroup := make(map[string]error)
		grew, waiting := false, false
		for range todo {
			r := <-results
			if r.err != nil {
				failed = append(failed, r.group)
				errByGroup[r.group] = r.err
				continue
			}
			legs[r.group] = r
			for _, d := range r.dests {
				hinted[d] = true
			}
			if r.pending {
				// Mid-cutover rows were hidden; re-scan this group after its
				// HandoffIn applies (the retry pins a later position).
				pendingSet[r.group] = true
				waiting = true
			}
		}
		for d := range hinted {
			if _, have := legs[d]; !have {
				pendingSet[d] = true
				grew = true
			} else if !inboundAware(legs[d]) && !pendingSet[d] {
				pendingSet[d] = true
				waiting = true
			}
		}
		if len(failed) > 0 {
			sort.Strings(failed)
			msg := ""
			for i, g := range failed {
				if i > 0 {
					msg += "; "
				}
				msg += fmt.Sprintf("group %s: %v", g, errByGroup[g])
			}
			return nil, fmt.Errorf("core: kv scan: %d of %d groups unavailable: %s",
				len(failed), len(todo), msg)
		}
		if grew {
			if hops++; hops > kvMovedHops {
				return nil, fmt.Errorf("core: kv scan: destinations grew %d times without settling", hops-1)
			}
		}
		if waiting && !grew {
			if waits++; waits > kvMigratingRetries {
				return nil, fmt.Errorf("core: kv scan: range still migrating after %d retries", waits-1)
			}
			if err := sleepCtx(ctx, kv.retryDelay()); err != nil {
				return nil, err
			}
		}
	}
	return mergeScanLegs(legs), nil
}

// scanGroup materializes one group's leg with a fresh read-only transaction.
func (kv *KV) scanGroup(ctx context.Context, group, prefix string) scanLeg {
	leg := scanLeg{group: group}
	tx, err := kv.client.Begin(ctx, group)
	if err != nil {
		leg.err = err
		return leg
	}
	defer tx.Abort()
	sc := tx.Scan(prefix)
	for sc.Next(ctx) {
		leg.entries = append(leg.entries, sc.Entry())
	}
	if leg.err = sc.Err(); leg.err != nil {
		return leg
	}
	leg.pos = tx.ReadPos()
	leg.dests = sc.Dests()
	leg.pending = sc.Pending()
	return leg
}

// mergeScanLegs merges the per-group legs into one ascending key order, each
// key exactly once. A key served by two legs (source pinned before a
// cutover, destination after) keeps the MovedIn copy; among equals the
// lexicographically smallest group wins, making the merge deterministic.
func mergeScanLegs(legs map[string]scanLeg) *ScanResult {
	out := &ScanResult{Positions: make(map[string]int64, len(legs))}
	type tagged struct {
		ScanEntry
		group string
	}
	rows := 0
	for _, leg := range legs {
		rows += len(leg.entries)
	}
	all := make([]tagged, 0, rows)
	for _, leg := range legs {
		out.Positions[leg.group] = leg.pos
		for _, e := range leg.entries {
			all = append(all, tagged{ScanEntry: e, group: leg.group})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Key != all[j].Key {
			return all[i].Key < all[j].Key
		}
		if all[i].MovedIn != all[j].MovedIn {
			return all[i].MovedIn // preferred copy first
		}
		return all[i].group < all[j].group
	})
	out.Entries = make([]ScanEntry, 0, rows)
	for _, e := range all {
		if n := len(out.Entries); n > 0 && out.Entries[n-1].Key == e.Key {
			continue // duplicate from a leg pinned across the cutover
		}
		out.Entries = append(out.Entries, e.ScanEntry)
	}
	return out
}
