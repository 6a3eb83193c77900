package core

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/placement"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// scanPage drives the KindScan handler directly, following the cursor until
// the range is exhausted, and returns the served rows plus the pin.
func scanPages(t *testing.T, s *Service, group, prefix string, page int64, ts int64) ([]string, []string, int64) {
	t.Helper()
	var keys, vals []string
	cursor, hasCursor := "", false
	pin := ts
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("scan did not terminate")
		}
		resp := ask(t, s, "T", network.Message{
			Kind: network.KindScan, Group: group, Value: prefix,
			TS: pin, Pos: page, Key: cursor, Found: hasCursor,
		})
		if !resp.OK {
			t.Fatalf("scan page: %+v", resp)
		}
		if pin == network.ResolvePos {
			pin = resp.TS
		} else if resp.TS != pin {
			t.Fatalf("page served at %d, pinned %d", resp.TS, pin)
		}
		keys = append(keys, resp.Keys...)
		vals = append(vals, resp.Vals...)
		if !resp.Found {
			return keys, vals, pin
		}
		cursor, hasCursor = resp.Key, true
	}
}

// TestScanHandlerPagesSorted: the handler pages a prefix region in key
// order, honors the page limit, skips keys outside the prefix, and resolves
// a lazy pin at the watermark.
func TestScanHandlerPagesSorted(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A"})
	s := services["A"]
	writes := map[string]string{"other/x": "no"}
	for i := 0; i < 23; i++ {
		writes[fmt.Sprintf("s/k%02d", i)] = fmt.Sprintf("v%02d", i)
	}
	if err := s.ApplyDecided("g", 1, entryBytes("t1", 0, writes)); err != nil {
		t.Fatal(err)
	}

	keys, vals, pin := scanPages(t, s, "g", "s/", 5, network.ResolvePos)
	if pin != 1 {
		t.Fatalf("pin = %d, want 1", pin)
	}
	if len(keys) != 23 {
		t.Fatalf("scan returned %d keys, want 23: %v", len(keys), keys)
	}
	if !sort.StringsAreSorted(keys) {
		t.Fatalf("keys out of order: %v", keys)
	}
	for i, k := range keys {
		want := fmt.Sprintf("s/k%02d", i)
		if k != want || vals[i] != fmt.Sprintf("v%02d", i) {
			t.Fatalf("row %d = (%s, %s), want (%s, v%02d)", i, k, vals[i], want, i)
		}
	}
}

// TestTxScanSnapshotAcrossPages: a multi-page Tx.Scan observes exactly the
// state at its pinned position — writes that land after the first page are
// invisible to later pages (new keys absent, overwrites unseen).
func TestTxScanSnapshotAcrossPages(t *testing.T) {
	cl, services := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	writes := map[string]string{}
	for i := 0; i < 30; i++ {
		writes[fmt.Sprintf("s/k%02d", i)] = "v1"
	}
	seed := entryBytes("t1", 0, writes)
	for _, dc := range []string{"A", "B", "C"} {
		if err := services[dc].ApplyDecided("g", 1, seed); err != nil {
			t.Fatal(err)
		}
	}

	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	sc := tx.Scan("s/")
	sc.PageSize = 8
	if !sc.Next(ctx) {
		t.Fatalf("first row: %v", sc.Err())
	}
	got := []ScanEntry{sc.Entry()}
	if tx.ReadPos() != 1 {
		t.Fatalf("first page pinned at %d, want 1", tx.ReadPos())
	}

	// The snapshot-breaking entry: every value overwritten, a new key added.
	over := map[string]string{"s/zz": "late"}
	for i := 0; i < 30; i++ {
		over[fmt.Sprintf("s/k%02d", i)] = "v2"
	}
	b := entryBytes("t2", 1, over)
	for _, dc := range []string{"A", "B", "C"} {
		if err := services[dc].ApplyDecided("g", 2, b); err != nil {
			t.Fatal(err)
		}
	}

	for sc.Next(ctx) {
		got = append(got, sc.Entry())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	if len(got) != 30 {
		t.Fatalf("scan saw %d rows, want the 30 at the pin: %+v", len(got), got)
	}
	for i, e := range got {
		if want := fmt.Sprintf("s/k%02d", i); e.Key != want {
			t.Fatalf("row %d key = %s, want %s", i, e.Key, want)
		}
		if e.Value != "v1" {
			t.Fatalf("row %s = %q: page after position 2 leaked a later write", e.Key, e.Value)
		}
	}
}

// TestTxScanOverlaysBufferedWrites: the transaction's own writes shadow
// stored rows and interleave as new rows, in order (property A1 for scans).
func TestTxScanOverlaysBufferedWrites(t *testing.T) {
	cl, services := newRingClient(t, "A", Config{Seed: 1})
	ctx := context.Background()
	b := entryBytes("t1", 0, map[string]string{"p/b": "old-b", "p/d": "old-d"})
	for _, dc := range []string{"A", "B", "C"} {
		if err := services[dc].ApplyDecided("g", 1, b); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	tx.Write("p/b", "new-b") // shadows a stored row
	tx.Write("p/a", "new-a") // before every stored row
	tx.Write("p/e", "new-e") // after every stored row
	tx.Write("q/x", "other") // outside the prefix: invisible

	var gotKeys, gotVals []string
	sc := tx.Scan("p/")
	for sc.Next(ctx) {
		gotKeys = append(gotKeys, sc.Key())
		gotVals = append(gotVals, sc.Value())
	}
	if sc.Err() != nil {
		t.Fatal(sc.Err())
	}
	wantKeys := []string{"p/a", "p/b", "p/d", "p/e"}
	wantVals := []string{"new-a", "new-b", "old-d", "new-e"}
	if fmt.Sprint(gotKeys) != fmt.Sprint(wantKeys) || fmt.Sprint(gotVals) != fmt.Sprint(wantVals) {
		t.Fatalf("scan = %v / %v, want %v / %v", gotKeys, gotVals, wantKeys, wantVals)
	}
}

// TestScanPinHoldsCompaction: a scan's pin clamps the group's compaction
// horizon, so versions later pages still read survive a concurrent Compact;
// a scan pinned below an already-compacted horizon is refused, not served
// half-GC'd data.
func TestScanPinHoldsCompaction(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A"})
	s := services["A"]
	for pos := int64(1); pos <= 5; pos++ {
		b := entryBytes(fmt.Sprintf("t%d", pos), pos-1, map[string]string{"s/k": fmt.Sprintf("v%d", pos)})
		if err := s.ApplyDecided("g", pos, b); err != nil {
			t.Fatal(err)
		}
	}

	// First page at position 2 registers the pin.
	resp := ask(t, s, "T", network.Message{Kind: network.KindScan, Group: "g", Value: "s/", TS: 2})
	if !resp.OK || resp.TS != 2 {
		t.Fatalf("pinned page: %+v", resp)
	}
	// A compaction to 5 must clamp at the pin.
	horizon, err := s.Compact("g", 5)
	if err != nil {
		t.Fatal(err)
	}
	if horizon != 2 {
		t.Fatalf("compaction horizon = %d with a scan pinned at 2, want 2", horizon)
	}
	// The pinned version is still readable: the next page serves normally.
	resp = ask(t, s, "T", network.Message{Kind: network.KindScan, Group: "g", Value: "s/", TS: 2})
	if !resp.OK || len(resp.Vals) != 1 || resp.Vals[0] != "v2" {
		t.Fatalf("page after clamped compaction: %+v", resp)
	}

	// A scan pinned below a horizon that already moved is refused.
	s2 := services["A"] // fresh group on the same service
	for pos := int64(1); pos <= 4; pos++ {
		b := entryBytes(fmt.Sprintf("u%d", pos), pos-1, map[string]string{"s/k": "v"})
		if err := s2.ApplyDecided("h", pos, b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s2.Compact("h", 4); err != nil {
		t.Fatal(err)
	}
	resp = ask(t, s2, "T", network.Message{Kind: network.KindScan, Group: "h", Value: "s/", TS: 2})
	if resp.OK || resp.Verdict != network.VerdictCompacted {
		t.Fatalf("scan below the horizon = %+v, want %q refusal", resp, network.VerdictCompacted)
	}
}

// TestKVScanMergesGroups: the routed scan fans one leg per group and merges
// the pages into one ascending order with per-group positions reported.
func TestKVScanMergesGroups(t *testing.T) {
	router := &mapRouter{def: "g0", groups: []string{"g0", "g1", "g2"}}
	kv, services := newKVHarness(t, router)
	ctx := context.Background()

	perGroup := map[string]map[string]string{
		"g0": {"p/a": "va", "p/d": "vd"},
		"g1": {"p/b": "vb", "p/e": "ve"},
		"g2": {"p/c": "vc", "q/z": "no"},
	}
	for g, writes := range perGroup {
		b := entryBytes("seed-"+g, 0, writes)
		for _, dc := range kvDCs {
			if err := services[dc].ApplyDecided(g, 1, b); err != nil {
				t.Fatal(err)
			}
		}
	}

	res, err := kv.Scan(ctx, "p/")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"p/a", "p/b", "p/c", "p/d", "p/e"}
	if len(res.Entries) != len(want) {
		t.Fatalf("scan = %+v, want keys %v", res.Entries, want)
	}
	for i, e := range res.Entries {
		if e.Key != want[i] || e.Value != "v"+want[i][2:] {
			t.Fatalf("entry %d = %+v, want (%s, v%s)", i, e, want[i], want[i][2:])
		}
	}
	for _, g := range router.groups {
		if pos, ok := res.Positions[g]; !ok || pos != 1 {
			t.Fatalf("Positions[%s] = (%d, %v), want (1, true)", g, pos, ok)
		}
	}
}

// TestRangeSnapshotPagingLinear pins the backfill read-path fix: paging a
// group's rows through KindRangeSnapshot must examine O(rows) index entries
// in total, not O(rows) per page (the old full-store key walk per page made
// an N-row backfill quadratic — 4x the rows cost ~16x the work; the cursor
// seek keeps the ratio linear).
func TestRangeSnapshotPagingLinear(t *testing.T) {
	pageAll := func(s *Service, n int) int64 {
		t.Helper()
		// Seed n rows in one entry, then page the whole moving set out.
		writes := make(map[string]string, n)
		for i := 0; i < n; i++ {
			writes[fmt.Sprintf("row-%05d", i)] = "v"
		}
		if err := s.ApplyDecided("g0", 1, entryBytes("seed", 0, writes)); err != nil {
			t.Fatal(err)
		}
		before := s.Store().ScanExamined()
		cursor, hasCursor := "", false
		got := 0
		for pages := 0; ; pages++ {
			if pages > n {
				t.Fatal("range snapshot did not terminate")
			}
			resp := ask(t, s, "T", network.Message{
				Kind: network.KindRangeSnapshot, Group: "g0", Value: "g1",
				Keys: []string{"g0", "g1"}, TS: network.ResolvePos,
				Key: cursor, Found: hasCursor,
			})
			if !resp.OK {
				t.Fatalf("range snapshot page: %+v", resp)
			}
			got += len(resp.Keys)
			if !resp.Found {
				break
			}
			cursor, hasCursor = resp.Key, true
		}
		if got == 0 {
			t.Fatal("no rows moved; move-set predicate matched nothing")
		}
		return s.Store().ScanExamined() - before
	}

	servicesA, _ := newServiceRing(t, 3, []string{"A"})
	small := pageAll(servicesA["A"], 500)
	servicesB, _ := newServiceRing(t, 3, []string{"B"})
	big := pageAll(servicesB["B"], 2000)

	// Linear paging: 4x the rows ≈ 4x the examined entries (pages re-examine
	// at most a page boundary row each). Quadratic would be ~16x.
	if ratio := float64(big) / float64(small); ratio > 8 {
		t.Fatalf("examined %d for 500 rows vs %d for 2000: ratio %.1f suggests superlinear paging", small, big, ratio)
	}
	if big > 4*2000+scanExamineBudget {
		t.Fatalf("examined %d entries paging 2000 rows; want O(rows)", big)
	}
}

// TestScanBudgetCountsSkippedRows: a row the migration fence skips still
// counts against scanExamineBudget, row by row. With more than the budget's
// worth of one region moved out at the pin, one request for 1000-row pages
// returns no rows and a progress cursor on the budget-th row past its own,
// having resolved no more than the budget and the one index page (64 keys)
// the store reads ahead — not the whole region, and not the 3000 rows of the
// first page boundary past the budget.
func TestScanBudgetCountsSkippedRows(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	t.Cleanup(s.Close)
	groups := []string{"g0", "g1"}
	set := placement.NewMoveSet(groups, "g0", "g1")
	writes := map[string]string{}
	var keys []string
	for i := 0; len(writes) < scanExamineBudget+1000; i++ {
		if k := fmt.Sprintf("s/k%06d", i); set.Moves(k) {
			writes[k] = "v"
			keys = append(keys, k)
		}
	}
	if err := s.ApplyDecided("g0", 1, entryBytes("seed", 0, writes)); err != nil {
		t.Fatal(err)
	}
	if err := s.ApplyDecided("g0", 2, wal.Encode(wal.NewHandoff(wal.HandoffOut, "g0", "g1", groups))); err != nil {
		t.Fatal(err)
	}
	cursor := keys[10]
	before := s.Store().ScanExamined()
	resp := ask(t, s, "T", network.Message{Kind: network.KindScan, Group: "g0", Value: "s/", TS: 2, Pos: 1000, Key: cursor, Found: true})
	examined := s.Store().ScanExamined() - before
	if want := keys[10+scanExamineBudget]; !resp.OK || len(resp.Keys) != 0 || !resp.Found || resp.Key != want || resp.Value != "g1" {
		t.Fatalf("page after %s over a moved-out region = %+v, want no rows, the cursor %s and the hint g1", cursor, resp, want)
	}
	if examined > scanExamineBudget+64 {
		t.Fatalf("one request resolved %d rows; budget %d and one index page", examined, scanExamineBudget)
	}
}

// TestScanPageAllocs pins what the scan handler allocates for one group's
// page at the default limit: no more than a handler that collects the page
// first and sizes the columns from it, which costs 4 allocations up to 64 rows
// and 6 at 256. Columns grown by append from nil cost 12 for 10 rows; columns
// started at 16 and grown by append cost 9 for 50 rows and 15 for 256.
func TestScanPageAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	for _, tc := range []struct{ rows, allocs int }{{10, 4}, {50, 4}, {256, 6}} {
		s := NewService("A", kvstore.New(), nil)
		t.Cleanup(s.Close)
		writes := map[string]string{"r/before": "x", "t/after": "x"}
		for i := 0; i < tc.rows; i++ {
			writes[fmt.Sprintf("s/k%03d", i)] = "v"
		}
		if err := s.ApplyDecided("g", 1, entryBytes("seed", 0, writes)); err != nil {
			t.Fatal(err)
		}
		req := network.Message{Kind: network.KindScan, Group: "g", Value: "s/", TS: 1}
		allocs := testing.AllocsPerRun(100, func() {
			if resp := s.handleScan(req); !resp.OK || len(resp.Keys) != tc.rows {
				t.Fatalf("page = %+v, want the %d rows", resp, tc.rows)
			}
		})
		if allocs > float64(tc.allocs) {
			t.Fatalf("a %d-row scan page costs %.0f allocations, want at most %d", tc.rows, allocs, tc.allocs)
		}
	}
}

// FuzzPagedHandlers: the resume tokens of the three paged handlers — scan,
// range snapshot, snapshot transfer — come from the client, which may forge
// any of them: the prefix or destination (Value), the cursor (Key, Found),
// the page size or version floor (Pos) and the pin (TS). Whatever they say, a
// handler does not panic; an OK page holds rows in key order, inside the
// region, strictly after the cursor and no more than the page allows; and a
// Found reply's cursor lies past the request's and past the page's rows, so
// following the chain ends within the region's rows plus one pages.
func FuzzPagedHandlers(f *testing.F) {
	s := NewService("A", kvstore.New(), nil)
	f.Cleanup(s.Close)
	groups := []string{"g", "g1"}
	writes := map[string]string{}
	for i := 0; i < 40; i++ {
		writes[fmt.Sprintf("s/k%02d", i)] = strings.Repeat("v", 1500) // 60 KB: the transfer takes pages
		writes[fmt.Sprintf("t/k%02d", i)] = "w"
	}
	if err := s.ApplyDecided("g", 1, entryBytes("seed", 0, writes)); err != nil {
		f.Fatal(err)
	}
	// At pins from 2 on, the scan fence skips the rows that moved to g1.
	if err := s.ApplyDecided("g", 2, wal.Encode(wal.NewHandoff(wal.HandoffOut, "g", "g1", groups))); err != nil {
		f.Fatal(err)
	}
	prefix := replog.DataPrefix("g")
	kinds := []network.Kind{network.KindScan, network.KindRangeSnapshot, network.KindSnapshot}
	f.Add(uint8(0), "s/", "", false, int64(0), int64(network.ResolvePos))
	f.Add(uint8(0), "s/", "s/k10", true, int64(7), int64(1))
	f.Add(uint8(0), "", "s/k33", true, int64(-5), int64(2))
	f.Add(uint8(0), "s/", "", false, int64(1<<40), int64(99)) // a pin past the watermark
	f.Add(uint8(1), "g1", "", false, int64(0), int64(network.ResolvePos))
	f.Add(uint8(1), "g1", "s/k05", true, int64(1), int64(1))
	f.Add(uint8(1), "g", "t/", true, int64(0), int64(2))
	f.Add(uint8(2), "", "", false, int64(0), int64(0))
	f.Add(uint8(2), "", "s/k20", true, int64(0), int64(2))
	f.Add(uint8(2), "", "", true, int64(0), int64(-7))
	f.Fuzz(func(t *testing.T, kind uint8, value, key string, found bool, pos, ts int64) {
		req := network.Message{Kind: kinds[int(kind)%len(kinds)], Group: "g", Value: value, Keys: groups, Key: key, Found: found, Pos: pos, TS: ts}
		for pages := 0; ; pages++ {
			if pages > len(writes)+1 {
				t.Fatalf("%+v: %d pages and the chain goes on", req, pages)
			}
			resp := ask(t, s, "T", req)
			if !resp.OK {
				return
			}
			if pages > 0 && resp.TS != req.TS {
				t.Fatalf("%+v: page served at %d", req, resp.TS)
			}
			var keys []string
			limit := scanDefaultPageRows
			inside := func(string) bool { return true }
			switch req.Kind {
			case network.KindScan:
				if req.Pos > 0 {
					limit = int(min(req.Pos, scanMaxPageRows))
				}
				inside = func(k string) bool { return strings.HasPrefix(k, req.Value) }
				keys = resp.Keys
				if len(resp.Vals) != len(keys) || len(resp.Founds) != len(keys) {
					t.Fatalf("%+v: %d keys, %d values, %d founds", req, len(keys), len(resp.Vals), len(resp.Founds))
				}
			case network.KindRangeSnapshot:
				inside = placement.NewMoveSet(groups, "g", req.Value).Moves
				keys = resp.Keys
				if len(resp.Vals) != len(keys) {
					t.Fatalf("%+v: %d keys, %d values", req, len(keys), len(resp.Vals))
				}
			case network.KindSnapshot:
				page := bufio.NewReader(bytes.NewReader(resp.Payload))
				if !req.Found {
					if _, _, err := readSnapshotHeader(page, "g", resp.TS); err != nil {
						t.Fatalf("%+v: %v", req, err)
					}
				}
				rows, err := readSnapshotRows(page, prefix, resp.TS)
				if err != nil {
					t.Fatalf("%+v: %v", req, err)
				}
				for _, r := range rows {
					keys = append(keys, r.Key[len(prefix):])
				}
				if len(resp.Payload) > snapshotPageBytes && len(rows) > 1 {
					t.Fatalf("%+v: a %d-byte page of %d rows", req, len(resp.Payload), len(rows))
				}
			}
			if len(keys) > limit {
				t.Fatalf("%+v: %d rows on a page of %d", req, len(keys), limit)
			}
			last, cursor := "", ""
			if req.Found {
				last, cursor = req.Key, req.Key
			}
			for i, k := range keys {
				if (i > 0 || req.Found) && k <= last || !inside(k) {
					t.Fatalf("%+v: row %q after %q, or outside the region", req, k, last)
				}
				last = k
			}
			if !resp.Found {
				return
			}
			if req.Found && resp.Key <= cursor || resp.Key < last {
				t.Fatalf("%+v: cursor %q after rows up to %q", req, resp.Key, last)
			}
			req.Key, req.Found, req.TS = resp.Key, true, resp.TS
		}
	})
}

// TestDispatcherCloseDrainsWithRefusals: items still queued when the
// dispatcher closes are refused, not dropped, and a dispatch after close
// refuses immediately on the caller's goroutine.
func TestDispatcherCloseDrainsWithRefusals(t *testing.T) {
	gate := make(chan struct{})
	started := make(chan struct{})
	var ran, refused atomic.Int32
	d := newDispatcher(1, func(_ string, req network.Message) network.Message {
		switch req.Kind {
		case "block":
			close(started)
			<-gate
		case "after-close":
			t.Error("ran after close")
		}
		return network.Status(true, "")
	})
	count := func(m network.Message) {
		switch {
		case m.OK:
			ran.Add(1)
		case m.Verdict == network.VerdictShutdown:
			refused.Add(1)
		}
	}
	d.dispatch("g", d.item("B", network.Message{Kind: "block"}, func(network.Message) {}))
	<-started // the lone worker is parked; everything below queues

	const queued = 32
	for i := 0; i < queued; i++ {
		d.dispatch("g", d.item("B", network.Message{Kind: "queued"}, count))
	}
	d.close()

	// Post-close dispatch: refused synchronously, before the drain even runs.
	sawRefusal := false
	d.dispatch("g", d.item("B", network.Message{Kind: "after-close"}, func(m network.Message) {
		sawRefusal = m.Verdict == network.VerdictShutdown
	}))
	if !sawRefusal {
		t.Fatal("dispatch after close was not refused synchronously")
	}

	close(gate) // release the worker; it drains the queue with refusals
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load()+refused.Load() < queued {
		if time.Now().After(deadline) {
			t.Fatalf("accounted %d+%d of %d queued items", ran.Load(), refused.Load(), queued)
		}
		time.Sleep(time.Millisecond)
	}
	if refused.Load() == 0 {
		t.Fatalf("no queued item was refused (ran=%d): close dropped the drain", ran.Load())
	}
}

// TestServiceCloseMidBurstRepliesNotTimeouts: requests racing Service.Close
// all receive a verdict — success before the close or a VerdictShutdown
// refusal after — never silence that costs the peer a timeout.
func TestServiceCloseMidBurstRepliesNotTimeouts(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	if err := s.ApplyDecided("g", 1, entryBytes("t1", 0, map[string]string{"k": "v"})); err != nil {
		t.Fatal(err)
	}
	ah := s.AsyncHandler()

	const burst = 400
	replies := make(chan network.Message, burst)
	var wg sync.WaitGroup
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ah("B", network.Message{Kind: network.KindRead, Group: "g", Key: "k", TS: 1},
				func(m network.Message) { replies <- m })
		}()
		if i == burst/2 {
			go s.Close()
		}
	}
	wg.Wait()

	shutdowns := 0
	for i := 0; i < burst; i++ {
		select {
		case m := <-replies:
			if !m.OK && m.Verdict != network.VerdictShutdown {
				t.Fatalf("reply %d: %+v, want success or %q", i, m, network.VerdictShutdown)
			}
			if m.Verdict == network.VerdictShutdown {
				shutdowns++
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("request %d never answered: dropped at close (got %d shutdown refusals so far)", i, shutdowns)
		}
	}
}
