package core

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
)

// scanPage drives the KindScan handler directly, following the cursor until
// the range is exhausted, and returns the served rows plus the pin.
func scanPages(t *testing.T, s *Service, group, prefix string, page int64, ts int64) ([]string, []string, int64) {
	t.Helper()
	h := s.Handler()
	var keys, vals []string
	cursor, hasCursor := "", false
	pin := ts
	for i := 0; ; i++ {
		if i > 10000 {
			t.Fatal("scan did not terminate")
		}
		resp := h("T", network.Message{
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
	services, _ := newServiceRing(t, "A")
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
	services, _ := newServiceRing(t, "A")
	s := services["A"]
	for pos := int64(1); pos <= 5; pos++ {
		b := entryBytes(fmt.Sprintf("t%d", pos), pos-1, map[string]string{"s/k": fmt.Sprintf("v%d", pos)})
		if err := s.ApplyDecided("g", pos, b); err != nil {
			t.Fatal(err)
		}
	}

	// First page at position 2 registers the pin.
	resp := s.Handler()("T", network.Message{Kind: network.KindScan, Group: "g", Value: "s/", TS: 2})
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
	resp = s.Handler()("T", network.Message{Kind: network.KindScan, Group: "g", Value: "s/", TS: 2})
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
	resp = s2.Handler()("T", network.Message{Kind: network.KindScan, Group: "h", Value: "s/", TS: 2})
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
		h := s.Handler()
		cursor, hasCursor := "", false
		got := 0
		for pages := 0; ; pages++ {
			if pages > n {
				t.Fatal("range snapshot did not terminate")
			}
			resp := h("T", network.Message{
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

	servicesA, _ := newServiceRing(t, "A")
	small := pageAll(servicesA["A"], 500)
	servicesB, _ := newServiceRing(t, "B")
	big := pageAll(servicesB["B"], 2000)

	// Linear paging: 4x the rows ≈ 4x the examined entries (pages re-examine
	// at most a page boundary row each). Quadratic would be ~16x.
	if ratio := float64(big) / float64(small); ratio > 8 {
		t.Fatalf("examined %d for 500 rows vs %d for 2000: ratio %.1f suggests superlinear paging", small, big, ratio)
	}
	if big > 4*2000+rangeSnapshotExamineBudget {
		t.Fatalf("examined %d entries paging 2000 rows; want O(rows)", big)
	}
}

// TestDispatcherCloseDrainsWithRefusals: items still queued when the
// dispatcher closes are refused, not dropped, and a dispatch after close
// refuses immediately on the caller's goroutine.
func TestDispatcherCloseDrainsWithRefusals(t *testing.T) {
	d := newDispatcher(1)
	gate := make(chan struct{})
	started := make(chan struct{})
	d.dispatch("g", func() { close(started); <-gate }, func() {})
	<-started // the lone worker is parked; everything below queues

	const queued = 32
	var ran, refused atomic.Int32
	for i := 0; i < queued; i++ {
		d.dispatch("g", func() { ran.Add(1) }, func() { refused.Add(1) })
	}
	d.close()

	// Post-close dispatch: refused synchronously, before the drain even runs.
	sawRefusal := false
	d.dispatch("g", func() { t.Error("ran after close") }, func() { sawRefusal = true })
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
