package disk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
)

// quiet keeps engine log lines out of test output unless -v digging is
// needed; swap for t.Logf when debugging.
func quiet(string, ...any) {}

func mustOpen(t *testing.T, dir string, opts Options) (*kvstore.Store, *Engine) {
	t.Helper()
	if opts.Logf == nil {
		opts.Logf = quiet
	}
	s, e, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, e
}

func TestOpenWriteReopen(t *testing.T) {
	dir := t.TempDir()
	s, e := mustOpen(t, dir, Options{})
	for i := 0; i < 20; i++ {
		key := "k" + strconv.Itoa(i%5)
		if _, err := s.Write(key, kvstore.Value{"a": strconv.Itoa(i)}, int64(i)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s2, e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	for i := 0; i < 20; i++ {
		key := "k" + strconv.Itoa(i%5)
		v, ts, err := s2.Read(key, int64(i))
		if err != nil {
			t.Fatalf("read %s@%d after reopen: %v", key, i, err)
		}
		if ts != int64(i) || v["a"] != strconv.Itoa(i) {
			t.Fatalf("read %s@%d = (%v, %d), want ({a:%d}, %d)", key, i, v, ts, i, i)
		}
	}
	// The reopened store keeps accepting and persisting writes.
	if _, err := s2.Write("k0", kvstore.Value{"a": "after"}, 100); err != nil {
		t.Fatalf("write after reopen: %v", err)
	}
}

// mutHistory builds a deterministic write history: key cycles over nkeys,
// timestamps strictly increase per key.
func mutHistory(n, nkeys int) []kvstore.Mutation {
	muts := make([]kvstore.Mutation, n)
	for i := range muts {
		muts[i] = kvstore.Mutation{
			Op:    kvstore.OpWrite,
			Key:   "key-" + strconv.Itoa(i%nkeys),
			TS:    int64(i),
			Value: kvstore.Pack(kvstore.Value{"attr": "v" + strconv.Itoa(i), "pad": "xxxxxxxx"}),
		}
	}
	return muts
}

// expectState verifies that s holds exactly the first j mutations of muts.
func expectState(t *testing.T, s *kvstore.Store, muts []kvstore.Mutation, j int) {
	t.Helper()
	perKey := map[string]int{}
	for i := 0; i < j; i++ {
		m := muts[i]
		perKey[m.Key]++
		v, ts, err := s.Read(m.Key, m.TS)
		if err != nil {
			t.Fatalf("prefix %d: read %s@%d: %v", j, m.Key, m.TS, err)
		}
		if ts != m.TS || !v.Equal(m.Value.Unpack()) {
			t.Fatalf("prefix %d: read %s@%d = (%v, %d), want (%v, %d)", j, m.Key, m.TS, v, ts, m.Value, m.TS)
		}
	}
	for key, want := range perKey {
		if got := s.Versions(key); got != want {
			t.Fatalf("prefix %d: key %s has %d versions, want %d", j, key, got, want)
		}
	}
	if got := s.Len(); got != len(perKey) {
		t.Fatalf("prefix %d: store has %d keys, want %d", j, got, len(perKey))
	}
}

// TestEveryPrefixTruncation is the WAL property test: truncating the log at
// ANY byte offset and recovering must yield the state after some prefix of
// the mutation history — specifically the longest prefix of intact records.
func TestEveryPrefixTruncation(t *testing.T) {
	muts := mutHistory(24, 4)

	// Record boundaries: cumulative encoded size after each record.
	bounds := []int{0}
	var enc []byte
	for _, m := range muts {
		enc = kvstore.AppendRecord(enc, m)
		bounds = append(bounds, len(enc))
	}

	// Produce the reference log file by running the engine with per-write
	// sync so every record reaches the file.
	src := t.TempDir()
	s, e := mustOpen(t, src, Options{Fsync: SyncEvery})
	for _, m := range muts {
		if err := s.WriteIdempotent(m.Key, m.Value, m.TS); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segPath := filepath.Join(src, segmentName(1))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatalf("read segment: %v", err)
	}
	if len(full) != len(enc) {
		t.Fatalf("engine produced %d log bytes, reference encoding %d", len(full), len(enc))
	}

	recordsIn := func(prefixLen int) int {
		j := 0
		for j+1 < len(bounds) && bounds[j+1] <= prefixLen {
			j++
		}
		return j
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := filepath.Join(t.TempDir(), "d")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, segmentName(1)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		s2, e2, err := Open(dir, Options{Logf: quiet})
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		expectState(t, s2, muts, recordsIn(cut))
		e2.Close()
		s2.Close()
	}
}

// TestTornTailBytes appends garbage after a valid log and checks recovery
// truncates it without panicking, in several corruption shapes.
func TestTornTailBytes(t *testing.T) {
	muts := mutHistory(10, 3)
	var enc []byte
	for _, m := range muts {
		enc = kvstore.AppendRecord(enc, m)
	}
	tails := map[string][]byte{
		"half-record":  kvstore.AppendRecord(nil, muts[0])[:5],
		"zero-bytes":   make([]byte, 64),
		"giant-length": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"flipped-crc": func() []byte {
			r := kvstore.AppendRecord(nil, muts[0])
			r[2] ^= 0xff // corrupt a checksum byte
			return r
		}(),
	}
	for name, tail := range tails {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), append(append([]byte{}, enc...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			s, e, err := Open(dir, Options{Logf: quiet})
			if err != nil {
				t.Fatalf("Open with torn tail: %v", err)
			}
			expectState(t, s, muts, len(muts))
			// The tail is gone from disk: a second recovery sees a clean log.
			e.Close()
			s2, e2, err := Open(dir, Options{Logf: quiet})
			if err != nil {
				t.Fatalf("second Open: %v", err)
			}
			expectState(t, s2, muts, len(muts))
			e2.Close()
		})
	}
}

// TestSealedSegmentCorruptionRefuses: a malformed record in a non-final
// segment is real corruption (rotation fsyncs before sealing), so Open must
// fail loudly instead of silently dropping committed data.
func TestSealedSegmentCorruption(t *testing.T) {
	muts := mutHistory(6, 2)
	var seg1 []byte
	for _, m := range muts[:3] {
		seg1 = kvstore.AppendRecord(seg1, m)
	}
	var seg2 []byte
	for _, m := range muts[3:] {
		seg2 = kvstore.AppendRecord(seg2, m)
	}
	dir := t.TempDir()
	// Chop the sealed first segment mid-record.
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), seg1[:len(seg1)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(4)), seg2, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Logf: quiet}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

// TestDoubleReplayIdempotent re-opens the same directory repeatedly and also
// re-applies every mutation a second time: both must leave the state
// unchanged (invariant D2).
func TestDoubleReplayIdempotent(t *testing.T) {
	muts := mutHistory(30, 5)
	dir := t.TempDir()
	s, e := mustOpen(t, dir, Options{})
	for _, m := range muts {
		if err := s.WriteIdempotent(m.Key, m.Value, m.TS); err != nil {
			t.Fatal(err)
		}
	}
	e.Close()

	for round := 0; round < 3; round++ {
		s2, e2 := mustOpen(t, dir, Options{})
		expectState(t, s2, muts, len(muts))
		// Replay everything again on top of the recovered image.
		for _, m := range muts {
			if err := s2.ApplyMutation(kvstore.Mutation{Op: m.Op, Key: m.Key, TS: m.TS, Value: m.Value}); err != nil {
				t.Fatalf("round %d: second replay: %v", round, err)
			}
		}
		expectState(t, s2, muts, len(muts))
		e2.Close()
	}
}

// TestSnapshotCompactionAndReplay forces rotations and snapshots with tiny
// segments, then recovers and checks (a) nothing is lost, (b) the log
// actually compacted.
func TestSnapshotCompactionAndReplay(t *testing.T) {
	dir := t.TempDir()
	const n = 400
	muts := mutHistory(n, 8)
	s, e := mustOpen(t, dir, Options{SegmentBytes: 1024, CompactSegments: 1})
	for _, m := range muts {
		if err := s.WriteIdempotent(m.Key, m.Value, m.TS); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	segs, snaps, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no snapshot was taken despite forced rotations")
	}
	if len(segs) > 4 {
		t.Fatalf("compaction left %d segments (starts %v)", len(segs), segs)
	}
	s2, e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	expectState(t, s2, muts, n)
}

// TestCrashDurability: concurrent writers against the batch policy, a
// simulated power loss mid-traffic, then recovery. Every write that was
// acknowledged before the crash must be present afterwards (invariant D1).
func TestCrashDurability(t *testing.T) {
	dir := t.TempDir()
	s, e := mustOpen(t, dir, Options{SegmentBytes: 2048, CompactSegments: 2})

	const writers, perWriter = 8, 40
	acked := make([][]int, writers)
	var wg sync.WaitGroup
	crashAt := make(chan struct{})
	var once sync.Once
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				_, err := s.Write(key, kvstore.Value{"v": strconv.Itoa(i)}, 1)
				if err != nil {
					if errors.Is(err, ErrCrashed) {
						return
					}
					t.Errorf("writer %d: unexpected error: %v", w, err)
					return
				}
				acked[w] = append(acked[w], i)
				if w == 0 && i == perWriter/2 {
					once.Do(func() { close(crashAt) })
				}
			}
		}(w)
	}
	<-crashAt
	e.Crash()
	wg.Wait()

	s2, e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	total := 0
	for w := range acked {
		for _, i := range acked[w] {
			key := fmt.Sprintf("w%d-%d", w, i)
			if _, _, err := s2.Read(key, kvstore.Latest); err != nil {
				t.Fatalf("acknowledged write %s lost after crash: %v", key, err)
			}
			total++
		}
	}
	if total == 0 {
		t.Fatal("crash happened before any write was acknowledged; test proved nothing")
	}
	t.Logf("verified %d acknowledged writes survived the crash", total)
}

// TestCrashFailStops: after Crash, mutations fail with the sticky engine
// error while reads keep serving the in-memory image.
func TestCrashFailStops(t *testing.T) {
	dir := t.TempDir()
	s, e := mustOpen(t, dir, Options{})
	if _, err := s.Write("k", kvstore.Value{"a": "1"}, 1); err != nil {
		t.Fatal(err)
	}
	e.Crash()
	if _, err := s.Write("k2", kvstore.Value{"a": "2"}, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("write after crash: err=%v, want ErrCrashed", err)
	}
	var engErr *kvstore.EngineError
	if _, err := s.Write("k3", kvstore.Value{"a": "3"}, 1); !errors.As(err, &engErr) {
		t.Fatalf("write after crash: err=%v, want *kvstore.EngineError", err)
	}
	if _, _, err := s.Read("k", kvstore.Latest); err != nil {
		t.Fatalf("read after crash should serve the in-memory image: %v", err)
	}
}

// TestGCAndDeleteSurviveRestart: the space-management mutations are logged
// and replayed too.
func TestGCAndDeleteSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	s, e := mustOpen(t, dir, Options{})
	for ts := int64(0); ts < 10; ts++ {
		if err := s.WriteIdempotent("gc-key", kvstore.Value{"v": strconv.FormatInt(ts, 10)}, ts); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Write("doomed", kvstore.Value{"x": "y"}, 1); err != nil {
		t.Fatal(err)
	}
	if dropped := s.GC("gc-key", 7); dropped != 7 {
		t.Fatalf("GC dropped %d, want 7", dropped)
	}
	s.Delete("doomed")
	e.Close()

	s2, e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	if got := s2.Versions("gc-key"); got != 3 {
		t.Fatalf("gc-key has %d versions after restart, want 3", got)
	}
	if _, _, err := s2.Read("doomed", kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("deleted key resurrected after restart: err=%v", err)
	}
}

// TestSnapshotHorizonIsDurable: a snapshot must capture the durable
// (flushed) horizon, never the append horizon. A snapshot claiming
// still-queued sequence numbers can outlive them across a power loss;
// Open would then hand those sequence numbers to new acknowledged writes
// and the *next* recovery would silently skip them (a D1 violation).
func TestSnapshotHorizonIsDurable(t *testing.T) {
	dir := t.TempDir()
	s, e := mustOpen(t, dir, Options{Fsync: SyncInterval, Interval: time.Hour})
	muts := mutHistory(20, 4)
	for _, m := range muts {
		if err := s.WriteIdempotent(m.Key, m.Value, m.TS); err != nil {
			t.Fatal(err)
		}
	}
	// All 20 writes are acknowledged but queued (the hour-long interval
	// ticker never fires), so the durable log still ends at seq 0.
	if err := e.snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	_, snaps, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, sn := range snaps {
		if sn > 0 {
			t.Fatalf("snapshot claims seq %d but the durable log ends at 0", sn)
		}
	}
	e.Crash() // power loss: the queued records are gone

	// Writes acknowledged after recovery must survive the next recovery.
	s2, e2 := mustOpen(t, dir, Options{})
	post := mutHistory(15, 3)
	for _, m := range post {
		if err := s2.WriteIdempotent(m.Key, m.Value, m.TS); err != nil {
			t.Fatal(err)
		}
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	s3, e3 := mustOpen(t, dir, Options{})
	defer e3.Close()
	for _, m := range post {
		v, ts, err := s3.Read(m.Key, m.TS)
		if err != nil {
			t.Fatalf("post-recovery write %s@%d lost: %v", m.Key, m.TS, err)
		}
		if ts != m.TS || !v.Equal(m.Value.Unpack()) {
			t.Fatalf("post-recovery write %s@%d = (%v, %d), want (%v, %d)", m.Key, m.TS, v, ts, m.Value, m.TS)
		}
	}
}

// TestScrubStreamsSnapshot: a scrub pass verifies a snapshot by reading its
// records, one at a time — it allocates a small fraction of the file's size,
// where re-loading the file (as the scrub once did) built a second store
// beside the serving one.
func TestScrubStreamsSnapshot(t *testing.T) {
	dir := t.TempDir()
	s, e := mustOpen(t, dir, Options{Fsync: SyncInterval, Interval: time.Hour})
	defer e.Close()
	val := kvstore.PackAttrs("v", strings.Repeat("x", 40))
	batch := make([]kvstore.BatchWrite, 0, 500)
	for i := 0; i < 20000; i++ {
		batch = append(batch, kvstore.BatchWrite{Key: fmt.Sprintf("row/%05d", i), Value: val, TS: 1})
		if len(batch) == cap(batch) {
			if err := s.ApplyBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := e.snapshot(); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	_, snaps, err := listSegments(osFS{}, dir)
	if err != nil || len(snaps) != 1 {
		t.Fatalf("snapshots after one snapshot = %v (%v)", snaps, err)
	}
	st, err := os.Stat(filepath.Join(dir, snapshotName(snaps[0])))
	if err != nil {
		t.Fatal(err)
	}
	var rep ScrubReport
	grew := allocatedBy(func() { rep, err = e.Scrub() })
	if err != nil || rep.Snapshots != 1 || rep.Records != 20000 || len(rep.Corrupt) != 0 {
		t.Fatalf("scrub = %+v, %v; want one intact snapshot of 20000 records", rep, err)
	}
	t.Logf("scrubbing a %d-byte snapshot allocated %d bytes", st.Size(), grew)
	if grew >= uint64(st.Size())/4 {
		t.Fatalf("scrubbing a %d-byte snapshot allocated %d bytes", st.Size(), grew)
	}
}

// TestOpenSnapshotBeyondLogEnd: a directory whose newest snapshot claims
// sequence numbers past the log end (the layout a pre-fix engine could
// leave after a power loss) must recover without reusing the covered
// sequence numbers — Open restarts the log at snapSeq+1.
func TestOpenSnapshotBeyondLogEnd(t *testing.T) {
	dir := t.TempDir()
	muts := mutHistory(10, 2)
	ref := kvstore.New()
	var enc []byte
	for _, m := range muts {
		if err := ref.ApplyMutation(m); err != nil {
			t.Fatal(err)
		}
		enc = kvstore.AppendRecord(enc, m)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(1)), enc, 0o644); err != nil {
		t.Fatal(err)
	}
	// Snapshot claims seq 30; the WAL ends at seq 10.
	if err := writeSnapshot(osFS{}, dir, 30, ref, func() error { return nil }); err != nil {
		t.Fatal(err)
	}

	s, e := mustOpen(t, dir, Options{})
	expectState(t, s, muts, len(muts))
	if _, err := s.Write("post", kvstore.Value{"v": "1"}, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _, err := listSegments(osFS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0] <= 30 {
		t.Fatalf("log was not restarted past the snapshot horizon: segments %v", segs)
	}

	s2, e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	if _, _, err := s2.Read("post", kvstore.Latest); err != nil {
		t.Fatalf("write after guarded recovery lost on the next recovery: %v", err)
	}
	for _, m := range muts {
		if v, ts, err := s2.Read(m.Key, m.TS); err != nil || ts != m.TS || !v.Equal(m.Value.Unpack()) {
			t.Fatalf("snapshot state %s@%d = (%v, %d, %v), want (%v, %d)", m.Key, m.TS, v, ts, err, m.Value, m.TS)
		}
	}
}

// TestDeleteWriteReplayConvergence: Delete and Write racing on the same
// keys must reach the WAL in apply order (both append under the row lock),
// so recovery replay converges on the exact pre-crash image — no
// resurrected rows, no lost acknowledged writes, no bogus conflicting-
// rewrite corruption reports from out-of-order (key, ts) reuse.
func TestDeleteWriteReplayConvergence(t *testing.T) {
	dir := t.TempDir()
	s, e := mustOpen(t, dir, Options{})
	keys := []string{"hot-0", "hot-1", "hot-2"}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				key := keys[(w+i)%len(keys)]
				if _, err := s.Write(key, kvstore.Value{"w": strconv.Itoa(w), "i": strconv.Itoa(i)}, -1); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 120; j++ {
			s.Delete(keys[j%len(keys)])
		}
	}()
	wg.Wait()

	type keyState struct {
		found bool
		ts    int64
		v     kvstore.Value
		n     int
	}
	mem := map[string]keyState{}
	for _, k := range keys {
		v, ts, err := s.Read(k, kvstore.Latest)
		mem[k] = keyState{found: err == nil, ts: ts, v: v, n: s.Versions(k)}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	s2, e2, err := Open(dir, Options{Logf: quiet})
	if err != nil {
		t.Fatalf("recovery after delete/write races: %v", err)
	}
	defer e2.Close()
	for _, k := range keys {
		want := mem[k]
		v, ts, rerr := s2.Read(k, kvstore.Latest)
		if (rerr == nil) != want.found {
			t.Fatalf("key %s: recovered found=%v (err=%v), memory found=%v", k, rerr == nil, rerr, want.found)
		}
		if want.found && (ts != want.ts || !v.Equal(want.v)) {
			t.Fatalf("key %s: recovered (%v, %d), memory had (%v, %d)", k, v, ts, want.v, want.ts)
		}
		if got := s2.Versions(k); got != want.n {
			t.Fatalf("key %s: %d versions recovered, memory had %d", k, got, want.n)
		}
	}
}

// TestIntervalPolicyCleanClose: interval policy may lose unflushed tail on
// power loss but a clean Close flushes everything.
func TestIntervalPolicyCleanClose(t *testing.T) {
	dir := t.TempDir()
	s, e := mustOpen(t, dir, Options{Fsync: SyncInterval})
	muts := mutHistory(50, 5)
	for _, m := range muts {
		if err := s.WriteIdempotent(m.Key, m.Value, m.TS); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	s2, e2 := mustOpen(t, dir, Options{})
	defer e2.Close()
	expectState(t, s2, muts, len(muts))
}
