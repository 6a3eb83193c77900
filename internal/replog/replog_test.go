package replog

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/paxos"
	"paxoscp/internal/wal"
)

func testEntry(id string, readPos int64, writes map[string]string) []byte {
	return wal.Encode(wal.NewEntry(wal.Txn{
		ID: id, Origin: "A", ReadPos: readPos, Writes: writes,
	}))
}

func openLog(t *testing.T) (*Log, *kvstore.Store) {
	t.Helper()
	store := kvstore.New()
	l := Open(store, "g")
	t.Cleanup(l.Close)
	return l, store
}

func waitCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestLogOutOfOrderAppendHoldsWatermark(t *testing.T) {
	l, _ := openLog(t)
	h, err := l.Append(2, testEntry("t2", 1, map[string]string{"x": "2"}))
	if err != nil {
		t.Fatal(err)
	}
	if h != 0 {
		t.Fatalf("horizon after gapped append = %d, want 0", h)
	}
	if got := l.Applied(); got != 0 {
		t.Fatalf("watermark after gapped append = %d, want 0", got)
	}
	// Filling the gap advances through both positions.
	h, err = l.Append(1, testEntry("t1", 0, map[string]string{"x": "1"}))
	if err != nil {
		t.Fatal(err)
	}
	if h != 2 {
		t.Fatalf("horizon after gap fill = %d, want 2", h)
	}
	if err := l.WaitApplied(waitCtx(t), 2); err != nil {
		t.Fatal(err)
	}
	if got := l.Applied(); got != 2 {
		t.Fatalf("watermark = %d, want 2", got)
	}
}

func TestLogDuplicateAppendIdempotent(t *testing.T) {
	l, _ := openLog(t)
	b := testEntry("t1", 0, map[string]string{"x": "1"})
	for i := 0; i < 3; i++ {
		if _, err := l.Append(1, b); err != nil {
			t.Fatalf("append #%d: %v", i, err)
		}
	}
	if err := l.WaitApplied(waitCtx(t), 1); err != nil {
		t.Fatal(err)
	}
	// Replay after application is also harmless.
	if h, err := l.Append(1, b); err != nil || h != 1 {
		t.Fatalf("post-apply replay: h=%d err=%v", h, err)
	}
	if got := l.Applied(); got != 1 {
		t.Fatalf("watermark = %d, want 1", got)
	}
}

// TestLogConflictingAppendRejected pins invariant R1 at the door: a second
// value for a decided position is refused by Append itself, against the
// queued copy while the position is pending and against the stored row once
// it is applied. The refusal must never reach the drain, where it would turn
// into the sticky apply error that stops the whole group.
func TestLogConflictingAppendRejected(t *testing.T) {
	l, store := openLog(t)
	// Position 2 stays queued behind the gap at 1.
	if _, err := l.Append(2, testEntry("t2", 1, map[string]string{"x": "2"})); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(2, testEntry("OTHER", 1, map[string]string{"x": "9"})); !errors.Is(err, kvstore.ErrStaleWrite) {
		t.Fatalf("conflicting append of a queued position: err = %v, want ErrStaleWrite", err)
	}
	if _, err := l.Append(1, testEntry("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 2); err != nil {
		t.Fatalf("the refused append left a sticky error: %v", err)
	}
	if _, err := l.Append(2, testEntry("OTHER", 1, map[string]string{"x": "9"})); !errors.Is(err, kvstore.ErrStaleWrite) {
		t.Fatalf("conflicting append of an applied position: err = %v, want ErrStaleWrite", err)
	}
	// The first value applied, and the log still takes entries.
	if v, _, err := store.Read(DataKey("g", "x"), 2); err != nil || v["v"] != "2" {
		t.Fatalf("x@2 = %v %v", v, err)
	}
	if e, _ := l.Entry(2); !e.Contains("t2") {
		t.Fatalf("entry 2 = %v, want the first value", e)
	}
	if _, err := l.Append(3, testEntry("t3", 2, map[string]string{"x": "3"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 3); err != nil {
		t.Fatal(err)
	}
}

// recEngine is a kvstore.Engine that records what the store logs — the keys
// of the appended records, in order, and the Sync calls. With hold set, every
// Sync announces itself on entered and then blocks until hold closes: a drain
// stuck in its flush.
type recEngine struct {
	mu      sync.Mutex
	keys    []string
	ops     []kvstore.Op // parallel to keys
	syncs   int
	hold    chan struct{} // nil = never block
	entered chan struct{} // one send per blocked Sync; made with hold
}

func (e *recEngine) Append(muts []kvstore.Mutation) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range muts {
		e.keys = append(e.keys, m.Key)
		e.ops = append(e.ops, m.Op)
	}
	return uint64(len(e.keys)), nil
}

func (e *recEngine) Sync(uint64) error {
	e.mu.Lock()
	e.syncs++
	hold := e.hold
	e.mu.Unlock()
	if hold != nil {
		e.entered <- struct{}{}
		<-hold
	}
	return nil
}

func (e *recEngine) Close() error { return nil }

// opsOn returns the ops of the records logged for key, in order.
func (e *recEngine) opsOn(key string) []kvstore.Op {
	e.mu.Lock()
	defer e.mu.Unlock()
	var ops []kvstore.Op
	for i, k := range e.keys {
		if k == key {
			ops = append(ops, e.ops[i])
		}
	}
	return ops
}

func (e *recEngine) logged() ([]string, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]string(nil), e.keys...), e.syncs
}

// TestDrainLogsWhatItApplies pins the tentpole's shape without a clock: a
// decided entry costs one batch — its log row, then its data writes, then
// the meta row, in that order (the order D3 and R2 rest on) — under one
// Sync, where Append used to flush the log row on its own first; and a
// duplicate Append, before or after the drain, logs nothing more.
func TestDrainLogsWhatItApplies(t *testing.T) {
	eng := &recEngine{}
	store := kvstore.New()
	store.AttachEngine(eng)
	l := Open(store, "g")
	defer l.Close()

	b := testEntry("t1", 0, map[string]string{"x": "1"})
	if _, err := l.Append(1, b); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, b); err != nil {
		t.Fatalf("duplicate append of a queued position: %v", err)
	}
	if err := l.WaitApplied(waitCtx(t), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(1, b); err != nil {
		t.Fatalf("duplicate append of an applied position: %v", err)
	}
	// A gapped entry is logged by a batch of its own, with no meta row; the
	// batch that later applies it does not log its row again.
	if _, err := l.Append(3, testEntry("t3", 2, map[string]string{"x": "3"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitLogged(waitCtx(t), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(2, testEntry("t2", 1, map[string]string{"y": "2"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 3); err != nil {
		t.Fatal(err)
	}
	keys, syncs := eng.logged()
	want := []string{
		paxos.StateKey("g", 1), DataKey("g", "x"), MetaKey("g"), // entry 1
		paxos.StateKey("g", 3),                                                     // entry 3, above the gap
		paxos.StateKey("g", 2), DataKey("g", "y"), DataKey("g", "x"), MetaKey("g"), // entries 2 and 3
	}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("WAL records:\n got %v\nwant %v", keys, want)
	}
	if syncs != 3 {
		t.Fatalf("%d syncs for 3 batches, want one each", syncs)
	}
}

// TestQueuedEntryReadableBeforeDrain: between Append and the drain's batch
// the entry exists only in the pending set, and every read of the log —
// Has, Entry, EntryBytes (what a peer's catch-up fetch is served from) and
// Snapshot — must already answer from there.
func TestQueuedEntryReadableBeforeDrain(t *testing.T) {
	// entered is buffered for both flushes of this test, so a Sync never
	// blocks on announcing itself.
	eng := &recEngine{hold: make(chan struct{}), entered: make(chan struct{}, 2)}
	store := kvstore.New()
	store.AttachEngine(eng)
	l := Open(store, "g")
	defer l.Close()

	if _, err := l.Append(1, testEntry("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	// Once the drain is stuck in entry 1's flush, entry 2 queues behind it
	// and reaches no batch until the flush is released.
	select {
	case <-eng.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("drain never reached its flush")
	}
	b2 := testEntry("t2", 1, map[string]string{"x": "2"})
	if h, err := l.Append(2, b2); err != nil || h != 2 {
		t.Fatalf("append 2: h=%d err=%v", h, err)
	}
	if _, _, err := store.ReadPacked(paxos.StateKey("g", 2), kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("Append wrote the log row itself: %v", err)
	}
	if !l.Has(2) {
		t.Error("Has(2) = false for a queued entry")
	}
	if e, ok := l.Entry(2); !ok || !e.Contains("t2") {
		t.Errorf("Entry(2) = %v %v", e, ok)
	}
	if raw, ok := l.EntryBytes(2); !ok || string(raw) != string(b2) {
		t.Errorf("EntryBytes(2) = %q %v, want the appended bytes", raw, ok)
	}
	if snap := l.Snapshot(); !snap[2].Contains("t2") {
		t.Errorf("Snapshot misses the queued entry: %v", snap)
	}
	close(eng.hold)
	if err := l.WaitApplied(waitCtx(t), 2); err != nil {
		t.Fatal(err)
	}
	if raw, ok := l.EntryBytes(2); !ok || string(raw) != string(b2) {
		t.Errorf("EntryBytes(2) after the drain = %q %v", raw, ok)
	}
}

func TestLogAppendRejectsGarbageAndBadPositions(t *testing.T) {
	l, _ := openLog(t)
	if _, err := l.Append(1, []byte("junk")); err == nil {
		t.Fatal("garbage entry accepted")
	}
	if _, err := l.Append(0, testEntry("t", 0, nil)); err == nil {
		t.Fatal("position 0 accepted")
	}
}

// TestLogWaitAppliedWakeupUnderContention parks many waiters at staggered
// positions while appenders race to deliver entries out of order; every
// waiter must wake exactly when its position is covered. Run with -race.
func TestLogWaitAppliedWakeupUnderContention(t *testing.T) {
	l, _ := openLog(t)
	const positions = 64
	ctx := waitCtx(t)

	var wg sync.WaitGroup
	errs := make(chan error, positions*2)
	for pos := int64(1); pos <= positions; pos++ {
		pos := pos
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.WaitApplied(ctx, pos); err != nil {
				errs <- fmt.Errorf("wait %d: %w", pos, err)
				return
			}
			if got := l.Applied(); got < pos {
				errs <- fmt.Errorf("woke at %d with watermark %d", pos, got)
			}
		}()
	}
	// Appenders deliver even positions first (gapped), then odd ones.
	for _, phase := range [][2]int64{{2, 2}, {1, 2}} {
		start, step := phase[0], phase[1]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pos := start; pos <= positions; pos += step {
				b := testEntry(fmt.Sprintf("t%d", pos), pos-1, map[string]string{"k": strconv.FormatInt(pos, 10)})
				if _, err := l.Append(pos, b); err != nil {
					errs <- fmt.Errorf("append %d: %w", pos, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := l.Applied(); got != positions {
		t.Fatalf("watermark = %d, want %d", got, positions)
	}
}

func TestLogWaitAppliedContextCancel(t *testing.T) {
	l, _ := openLog(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- l.WaitApplied(ctx, 99) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitApplied did not observe cancellation")
	}
}

func TestLogCloseWakesWaiters(t *testing.T) {
	l, _ := openLog(t)
	done := make(chan error, 1)
	go func() { done <- l.WaitApplied(context.Background(), 99) }()
	time.Sleep(10 * time.Millisecond)
	l.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitApplied did not observe Close")
	}
}

func TestLogBatchedApplyWritesDataRows(t *testing.T) {
	l, store := openLog(t)
	// Deliver a burst of positions; the apply goroutine may land them in
	// one batch — every data version and the meta row must still be exact.
	const n = 20
	for pos := int64(1); pos <= n; pos++ {
		b := testEntry(fmt.Sprintf("t%d", pos), pos-1, map[string]string{
			"k":                                  strconv.FormatInt(pos, 10),
			"only-" + strconv.FormatInt(pos, 10): "x",
		})
		if _, err := l.Append(pos, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitApplied(waitCtx(t), n); err != nil {
		t.Fatal(err)
	}
	for pos := int64(1); pos <= n; pos++ {
		v, ts, err := store.Read(DataKey("g", "k"), pos)
		if err != nil || ts != pos || v["v"] != strconv.FormatInt(pos, 10) {
			t.Fatalf("k@%d = %v ts=%d %v", pos, v, ts, err)
		}
	}
	meta, _, err := store.Read(MetaKey("g"), kvstore.Latest)
	if err != nil || meta["last"] != strconv.FormatInt(n, 10) {
		t.Fatalf("meta = %v %v", meta, err)
	}
}

func TestLogEntryServedFromCacheAfterStoreDelete(t *testing.T) {
	l, store := openLog(t)
	b := testEntry("t1", 0, map[string]string{"x": "1"})
	if _, err := l.Append(1, b); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 1); err != nil {
		t.Fatal(err)
	}
	// Deleting the durable row behind the cache's back: Entry still serves
	// the decoded entry, proving no store round-trip or re-decode happens.
	store.Delete(paxos.StateKey("g", 1))
	entry, ok := l.Entry(1)
	if !ok || !entry.Contains("t1") {
		t.Fatalf("cached entry = %v %v", entry, ok)
	}
}

// TestLogEntryCacheBounded scans a log larger than the cache limit in
// descending position order (the pattern a full LogSnapshot produces) and
// checks the decoded-entry cache stays bounded.
func TestLogEntryCacheBounded(t *testing.T) {
	l, _ := openLog(t)
	n := int64(cacheLimit + 128)
	for pos := int64(1); pos <= n; pos++ {
		if _, err := l.Append(pos, testEntry(fmt.Sprintf("t%d", pos), pos-1, map[string]string{"k": "v"})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitApplied(waitCtx(t), n); err != nil {
		t.Fatal(err)
	}
	for pos := n; pos >= 1; pos-- {
		if _, ok := l.Entry(pos); !ok {
			t.Fatalf("entry %d missing", pos)
		}
	}
	l.mu.Lock()
	size := len(l.cache)
	l.mu.Unlock()
	if size > cacheLimit {
		t.Fatalf("cache holds %d entries, limit is %d", size, cacheLimit)
	}
}

func TestLogReopenRecoversWatermarkAndPending(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g")
	for pos := int64(1); pos <= 3; pos++ {
		if _, err := l.Append(pos, testEntry(fmt.Sprintf("t%d", pos), pos-1, map[string]string{"k": strconv.FormatInt(pos, 10)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitApplied(waitCtx(t), 3); err != nil {
		t.Fatal(err)
	}
	l.Close()
	// Simulate an entry that was decided and made durable but whose data
	// writes never landed (crash between log-row write and apply).
	if err := store.WriteIdempotent(paxos.StateKey("g", 4), paxos.DecidedRow(string(testEntry("t4", 3, map[string]string{"k": "4"}))), 0); err != nil {
		t.Fatal(err)
	}

	l2 := Open(store, "g")
	defer l2.Close()
	// Open drains recovered entries synchronously: the watermark must
	// already cover position 4.
	if got := l2.Applied(); got != 4 {
		t.Fatalf("reopened watermark = %d, want 4", got)
	}
	if v, _, err := store.Read(DataKey("g", "k"), 4); err != nil || v["v"] != "4" {
		t.Fatalf("k@4 after reopen = %v %v", v, err)
	}
}

func TestLogCompact(t *testing.T) {
	l, store := openLog(t)
	for pos := int64(1); pos <= 5; pos++ {
		if _, err := l.Append(pos, testEntry(fmt.Sprintf("t%d", pos), pos-1, map[string]string{"k": strconv.FormatInt(pos, 10)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitApplied(waitCtx(t), 5); err != nil {
		t.Fatal(err)
	}
	var scavenged [][2]int64
	horizon, err := l.Compact(4, func(from, to int64) { scavenged = append(scavenged, [2]int64{from, to}) })
	if err != nil || horizon != 4 {
		t.Fatalf("Compact = %d %v", horizon, err)
	}
	if len(scavenged) != 1 || scavenged[0] != [2]int64{1, 4} {
		t.Fatalf("scavenge ranges = %v", scavenged)
	}
	if got := l.CompactedTo(); got != 4 {
		t.Fatalf("CompactedTo = %d", got)
	}
	for pos := int64(1); pos < 4; pos++ {
		if _, _, err := store.Read(paxos.StateKey("g", pos), kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("log row %d survived compaction: %v", pos, err)
		}
	}
	if _, ok := l.Entry(4); !ok {
		t.Fatal("entry at the horizon must survive")
	}
	// A horizon above the watermark clamps; one below is a no-op.
	if h, err := l.Compact(99, nil); err != nil || h != 5 {
		t.Fatalf("clamped Compact = %d %v", h, err)
	}
	if h, err := l.Compact(2, nil); err != nil || h != 5 {
		t.Fatalf("stale Compact = %d %v", h, err)
	}
}

func TestLogInstallSnapshot(t *testing.T) {
	l, store := openLog(t)
	// Land the snapshot's data rows the way the service does, then jump.
	if err := store.ApplyBatch([]kvstore.BatchWrite{
		{Key: DataKey("g", "k"), Value: kvstore.Value{"v": "snap"}, TS: 7},
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.InstallSnapshot(7, EpochState{}, MigrationState{}); err != nil {
		t.Fatal(err)
	}
	if got := l.Applied(); got != 7 {
		t.Fatalf("watermark after install = %d, want 7", got)
	}
	if got := l.CompactedTo(); got != 7 {
		t.Fatalf("compacted after install = %d, want 7", got)
	}
	// Waiters at or below the horizon are released immediately.
	if err := l.WaitApplied(waitCtx(t), 7); err != nil {
		t.Fatal(err)
	}
	// An older snapshot is a no-op.
	if err := l.InstallSnapshot(3, EpochState{}, MigrationState{}); err != nil {
		t.Fatal(err)
	}
	if got := l.Applied(); got != 7 {
		t.Fatalf("watermark regressed to %d", got)
	}
	// The log continues above the horizon.
	if _, err := l.Append(8, testEntry("t8", 7, map[string]string{"k": "8"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 8); err != nil {
		t.Fatal(err)
	}
}

func TestLogSnapshotListsPendingAndApplied(t *testing.T) {
	l, _ := openLog(t)
	if _, err := l.Append(1, testEntry("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(3, testEntry("t3", 2, map[string]string{"x": "3"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 1); err != nil {
		t.Fatal(err)
	}
	snap := l.Snapshot()
	if len(snap) != 2 || !snap[1].Contains("t1") || !snap[3].Contains("t3") {
		t.Fatalf("snapshot = %v", snap)
	}
}

// BenchmarkApplyThroughput compares the replog batched-async apply pipeline
// against a reimplementation of the seed's synchronous path (one
// WriteIdempotent per data key plus one meta-row version per position, under
// one mutex). Entries carry 4 writes each; appenders deliver bursts of 32
// positions and wait for the watermark, as the commit fan-in does.
func BenchmarkApplyThroughput(b *testing.B) {
	const burst = 32
	const writesPerEntry = 4
	entryAt := func(pos int64) []byte {
		writes := make(map[string]string, writesPerEntry)
		for k := 0; k < writesPerEntry; k++ {
			writes[fmt.Sprintf("key-%d", (int(pos)+k)%97)] = "v"
		}
		return testEntry(fmt.Sprintf("t%d", pos), pos-1, writes)
	}

	b.Run("replog-batched", func(b *testing.B) {
		store := kvstore.New()
		l := Open(store, "g")
		defer l.Close()
		b.ReportAllocs()
		b.ResetTimer()
		pos := int64(0)
		for i := 0; i < b.N; i++ {
			base := pos
			for j := 0; j < burst; j++ {
				pos++
				if _, err := l.Append(pos, entryAt(pos)); err != nil {
					b.Fatal(err)
				}
			}
			if err := l.WaitApplied(context.Background(), base+burst); err != nil {
				b.Fatal(err)
			}
		}
	})

	b.Run("seed-synchronous", func(b *testing.B) {
		store := kvstore.New()
		var mu sync.Mutex
		last := int64(0)
		apply := func(pos int64, entryBytes []byte) error {
			mu.Lock()
			defer mu.Unlock()
			if err := store.WriteIdempotent(paxos.StateKey("g", pos), kvstore.Value{"entry": string(entryBytes)}, 0); err != nil {
				return err
			}
			entry, err := wal.Decode(entryBytes)
			if err != nil {
				return err
			}
			for k, v := range entry.Writes() {
				if err := store.WriteIdempotent(DataKey("g", k), kvstore.Value{"v": v}, pos); err != nil {
					return err
				}
			}
			last = pos
			return store.WriteIdempotent(MetaKey("g"), kvstore.Value{"last": strconv.FormatInt(last, 10)}, last)
		}
		b.ReportAllocs()
		b.ResetTimer()
		pos := int64(0)
		for i := 0; i < b.N; i++ {
			for j := 0; j < burst; j++ {
				pos++
				if err := apply(pos, entryAt(pos)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// TestLogDuplicateAppendComparesBytes: an append that will queue nothing — the
// master's second append of every position, a redelivered apply message —
// costs a comparison against the row the log has, not a decode of the entry.
func TestLogDuplicateAppendComparesBytes(t *testing.T) {
	l, _ := openLog(t)
	writes := map[string]string{"attr1": "v1", "attr2": "v2", "attr3": "v3", "attr4": "v4"}
	applied, queued := testEntry("t1", 0, writes), testEntry("t3", 2, writes)
	for pos, b := range map[int64][]byte{1: applied, 3: queued} { // 3 waits behind the gap at 2
		if _, err := l.Append(pos, b); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.WaitApplied(waitCtx(t), 1); err != nil {
		t.Fatal(err)
	}
	dups := []struct {
		name   string
		pos    int64
		b      []byte
		max    float64 // the applied row's key is built for the store read
		allocs float64
	}{{name: "queued", pos: 3, b: queued}, {name: "applied", pos: 1, b: applied, max: 2}}
	for i := range dups {
		dup := &dups[i]
		dup.allocs = testing.AllocsPerRun(100, func() {
			if _, err := l.Append(dup.pos, dup.b); err != nil {
				t.Fatal(err)
			}
		})
	}
	// What an append that decodes costs: fresh positions, queued behind the
	// gap at 2, with the apply goroutine stopped so only the append counts.
	l.Close()
	next := int64(3)
	fresh := testing.AllocsPerRun(100, func() {
		next++
		if _, err := l.Append(next, queued); err != nil {
			t.Fatal(err)
		}
	})
	for _, dup := range dups {
		if dup.allocs > dup.max {
			t.Errorf("re-appending the %s position allocates %.0f times, want at most %.0f (a fresh append: %.0f)",
				dup.name, dup.allocs, dup.max, fresh)
		}
		if fresh <= dup.max {
			t.Errorf("a fresh append allocates only %.0f times, within the %s bound: the bound proves nothing", fresh, dup.name)
		}
	}
}
