package faultfs_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/kvstore/disk/faultfs"
	"paxoscp/internal/kvstore/storetest"
)

func quietOpts(o disk.Options) disk.Options {
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

func mustOpen(t *testing.T, dir string, o disk.Options) (*kvstore.Store, *disk.Engine) {
	t.Helper()
	s, e, err := disk.Open(dir, quietOpts(o))
	if err != nil {
		t.Fatalf("disk.Open(%s): %v", dir, err)
	}
	return s, e
}

func segName(start uint64) string { return fmt.Sprintf("wal-%020d.log", start) }

// writeHistory applies n deterministic versioned writes over nkeys keys.
func writeHistory(t *testing.T, s *kvstore.Store, n, nkeys int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := "key-" + strconv.Itoa(i%nkeys)
		ts := int64(i/nkeys + 1)
		if err := s.WriteIdempotent(key, kvstore.Value{"v": strconv.Itoa(i)}, ts); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
}

func checkHistory(t *testing.T, s *kvstore.Store, n, nkeys int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := "key-" + strconv.Itoa(i%nkeys)
		ts := int64(i/nkeys + 1)
		v, got, err := s.Read(key, ts)
		if err != nil || got != ts || v["v"] != strconv.Itoa(i) {
			t.Fatalf("read %s@%d = (%v, %d, %v), want v=%d", key, ts, v, got, err, i)
		}
	}
}

// TestSeamZeroFaultsByteIdentical pins that the FS seam changes no behavior:
// the same mutation history written through the default filesystem and
// through a faultfs injector with no faults armed produces byte-identical
// WAL segments and identical recovered state.
func TestSeamZeroFaultsByteIdentical(t *testing.T) {
	run := func(dir string, fs disk.FS) {
		// Small segments force rotations; huge CompactSegments disables the
		// (asynchronous, timing-dependent) snapshot path so the on-disk
		// bytes are a deterministic function of the history.
		s, e := mustOpen(t, dir, disk.Options{FS: fs, SegmentBytes: 512, CompactSegments: 1 << 20})
		writeHistory(t, s, 120, 6)
		if err := e.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	osDir, ffDir := t.TempDir(), t.TempDir()
	run(osDir, nil)
	run(ffDir, faultfs.New(nil))

	osEnts, err := os.ReadDir(osDir)
	if err != nil {
		t.Fatal(err)
	}
	ffEnts, err := os.ReadDir(ffDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(osEnts) != len(ffEnts) {
		t.Fatalf("file sets differ: os=%d faultfs=%d entries", len(osEnts), len(ffEnts))
	}
	for i := range osEnts {
		if osEnts[i].Name() != ffEnts[i].Name() {
			t.Fatalf("file %d: %s vs %s", i, osEnts[i].Name(), ffEnts[i].Name())
		}
		a, err := os.ReadFile(filepath.Join(osDir, osEnts[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(ffDir, ffEnts[i].Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("%s differs between os and faultfs runs (%d vs %d bytes)", osEnts[i].Name(), len(a), len(b))
		}
	}

	// Cross-recovery: each directory reopens through the other FS.
	s2, e2 := mustOpen(t, osDir, disk.Options{FS: faultfs.New(nil)})
	checkHistory(t, s2, 120, 6)
	e2.Close()
	s3, e3 := mustOpen(t, ffDir, disk.Options{})
	checkHistory(t, s3, 120, 6)
	e3.Close()
}

// TestConformanceOverFaultFS runs the cross-engine conformance suite over a
// disk store routed through a zero-fault injector: the seam (and the
// injector as a proxy) must be behaviorally invisible.
func TestConformanceOverFaultFS(t *testing.T) {
	storetest.Run(t, func(t *testing.T) *kvstore.Store {
		s, _ := mustOpen(t, t.TempDir(), disk.Options{FS: faultfs.New(nil)})
		t.Cleanup(s.Close)
		return s
	})
}

// TestEveryOpCrashReplayOverFaultFS is the every-op crash-replay matrix run
// over the FS seam with zero faults: each mutation kind is performed through
// an injector, the engine suffers a simulated power loss, and recovery must
// reproduce the op's effect exactly.
func TestEveryOpCrashReplayOverFaultFS(t *testing.T) {
	seed := func(t *testing.T, s *kvstore.Store) {
		t.Helper()
		for ts := int64(1); ts <= 5; ts++ {
			if err := s.WriteIdempotent("base", kvstore.Value{"v": strconv.FormatInt(ts, 10)}, ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name  string
		op    func(t *testing.T, s *kvstore.Store)
		check func(t *testing.T, s *kvstore.Store)
	}{
		{"Write", func(t *testing.T, s *kvstore.Store) {
			if _, err := s.Write("w", kvstore.Value{"x": "1"}, 7); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, s *kvstore.Store) {
			if v, ts, err := s.Read("w", kvstore.Latest); err != nil || ts != 7 || v["x"] != "1" {
				t.Fatalf("w = (%v, %d, %v)", v, ts, err)
			}
		}},
		{"WriteIdempotent", func(t *testing.T, s *kvstore.Store) {
			if err := s.WriteIdempotent("base", kvstore.Value{"v": "6"}, 6); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, s *kvstore.Store) {
			if v, _, err := s.Read("base", 6); err != nil || v["v"] != "6" {
				t.Fatalf("base@6 = (%v, %v)", v, err)
			}
		}},
		{"ApplyBatch", func(t *testing.T, s *kvstore.Store) {
			err := s.ApplyBatch([]kvstore.BatchWrite{
				{Key: "b1", Value: kvstore.Value{"v": "a"}, TS: 1},
				{Key: "b2", Value: kvstore.Value{"v": "b"}, TS: 1},
			})
			if err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, s *kvstore.Store) {
			for _, k := range []string{"b1", "b2"} {
				if _, _, err := s.Read(k, 1); err != nil {
					t.Fatalf("%s lost: %v", k, err)
				}
			}
		}},
		{"CheckAndWrite", func(t *testing.T, s *kvstore.Store) {
			if err := s.CheckAndWrite("caw", "owner", "", kvstore.Value{"owner": "me"}); err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, s *kvstore.Store) {
			if v, _, err := s.Read("caw", kvstore.Latest); err != nil || v["owner"] != "me" {
				t.Fatalf("caw = (%v, %v)", v, err)
			}
		}},
		{"Replace", func(t *testing.T, s *kvstore.Store) {
			err := s.ApplyBatch([]kvstore.BatchWrite{
				{Key: "base", Value: kvstore.Value{"n": "42"}, TS: 9, Replace: true},
			})
			if err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, s *kvstore.Store) {
			if v, _, err := s.Read("base", kvstore.Latest); err != nil || v["n"] != "42" || s.Versions("base") != 1 {
				t.Fatalf("base = (%v, %v), %d versions", v, err, s.Versions("base"))
			}
		}},
		// The replicated log's apply batch (replog's drain): a decided
		// entry's log row, its data write, and the replace-latest meta row
		// that records both — one batch, one sync.
		{"LogRowBatch", func(t *testing.T, s *kvstore.Store) {
			err := s.ApplyBatch([]kvstore.BatchWrite{
				{Key: "log/g/6", Value: kvstore.PackAttrs("entry", "decided-bytes")},
				{Key: "base", Value: kvstore.PackAttrs("v", "6"), TS: 6},
				{Key: "meta/g", Value: kvstore.PackAttrs("last", "6"), TS: 6, Replace: true},
			})
			if err != nil {
				t.Fatal(err)
			}
		}, func(t *testing.T, s *kvstore.Store) {
			if v, _, err := s.ReadPacked("log/g/6", kvstore.Latest); err != nil || v.Get("entry") != "decided-bytes" {
				t.Fatalf("log row = (%v, %v)", v, err)
			}
			if v, ts, err := s.ReadPacked("base", kvstore.Latest); err != nil || ts != 6 || v.Get("v") != "6" {
				t.Fatalf("base = (%v, %d, %v)", v, ts, err)
			}
			if v, _, err := s.ReadPacked("meta/g", kvstore.Latest); err != nil || v.Get("last") != "6" || s.Versions("meta/g") != 1 {
				t.Fatalf("meta row = (%v, %v), %d versions", v, err, s.Versions("meta/g"))
			}
		}},
		{"GC", func(t *testing.T, s *kvstore.Store) {
			if dropped := s.GC("base", 4); dropped != 3 {
				t.Fatalf("GC dropped %d, want 3", dropped)
			}
		}, func(t *testing.T, s *kvstore.Store) {
			if got := s.Versions("base"); got != 2 {
				t.Fatalf("base has %d versions, want 2", got)
			}
		}},
		{"Delete", func(t *testing.T, s *kvstore.Store) {
			s.Delete("base")
		}, func(t *testing.T, s *kvstore.Store) {
			if _, _, err := s.Read("base", kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
				t.Fatalf("deleted key resurrected: %v", err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			// Every acknowledged op is durable at the crash point.
			s, e := mustOpen(t, dir, disk.Options{FS: faultfs.New(nil)})
			seed(t, s)
			tc.op(t, s)
			e.Crash()
			s2, e2 := mustOpen(t, dir, disk.Options{FS: faultfs.New(nil)})
			defer e2.Close()
			tc.check(t, s2)
		})
	}
}

// TestFsyncFailureNeverAcksNeverRetries pins the fsyncgate contract: a
// failed fsync must fail the write that needed it (no ack), permanently
// fail-stop the engine, and never be retried — a retry would report
// "durable" against a page cache that may have dropped the dirty pages.
func TestFsyncFailureNeverAcksNeverRetries(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil)
	s, e := mustOpen(t, dir, disk.Options{FS: inj})

	if _, err := s.Write("acked", kvstore.Value{"v": "1"}, 1); err != nil {
		t.Fatal(err)
	}
	// Arm a TRANSIENT fault: only the very next fsync fails. If the engine
	// retried, the retry would succeed and the write would ack — exactly
	// the fsyncgate bug this test exists to catch.
	inj.FailFsyncs(0, 1)
	_, err := s.Write("lost", kvstore.Value{"v": "2"}, 1)
	if err == nil {
		t.Fatal("write acked through a failed fsync")
	}
	var ee *kvstore.EngineError
	if !errors.As(err, &ee) {
		t.Fatalf("want EngineError, got %v", err)
	}
	if !errors.Is(err, faultfs.ErrFsync) {
		t.Fatalf("error does not surface the injected fsync failure: %v", err)
	}
	if e.Fault() == nil {
		t.Fatal("engine not fail-stopped after fsync failure")
	}
	// Fail-stop is sticky even though the fault was transient: the next
	// write must fail immediately, not fsync again.
	if _, err := s.Write("after", kvstore.Value{"v": "3"}, 1); err == nil {
		t.Fatal("write acked on a fail-stopped engine")
	}
	if got := inj.Stats().FsyncFails; got != 1 {
		t.Fatalf("injector fired %d fsync faults, want exactly 1 (no retries)", got)
	}
	// Reads keep serving the in-memory image.
	if _, _, err := s.Read("acked", kvstore.Latest); err != nil {
		t.Fatalf("read on failed engine: %v", err)
	}
	s.Close()

	// Recovery with a healthy disk: the acked write is durable; the writes
	// that errored were never acked, so any fate is legal for them — but
	// nothing acked may be missing.
	s2, e2 := mustOpen(t, dir, disk.Options{})
	defer e2.Close()
	if _, _, err := s2.Read("acked", kvstore.Latest); err != nil {
		t.Fatalf("acked write lost across fsync failure + recovery: %v", err)
	}
	if _, _, err := s2.Read("after", kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("write rejected by the fail-stop reappeared: %v", err)
	}
}

// TestDiskFullFailStops: ENOSPC behaves like any other write failure —
// the op errors with the real errno, the engine fail-stops, reads keep
// working, and a recovery on a disk with space again loses nothing acked.
func TestDiskFullFailStops(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil)
	s, e := mustOpen(t, dir, disk.Options{FS: inj})

	inj.WriteBudget(256)
	var acked []int
	var failedAt = -1
	for i := 0; i < 100; i++ {
		_, err := s.Write("k"+strconv.Itoa(i), kvstore.Value{"v": strconv.Itoa(i)}, 1)
		if err != nil {
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("write %d failed with %v, want ENOSPC", i, err)
			}
			failedAt = i
			break
		}
		acked = append(acked, i)
	}
	if failedAt < 0 {
		t.Fatal("write budget never tripped")
	}
	if e.Fault() == nil {
		t.Fatal("engine not fail-stopped on ENOSPC")
	}
	if _, _, err := s.Read("k0", kvstore.Latest); err != nil {
		t.Fatalf("read on full-disk replica: %v", err)
	}
	s.Close()

	s2, e2 := mustOpen(t, dir, disk.Options{})
	defer e2.Close()
	for _, i := range acked {
		if _, _, err := s2.Read("k"+strconv.Itoa(i), kvstore.Latest); err != nil {
			t.Fatalf("acked write k%d lost across ENOSPC + recovery: %v", i, err)
		}
	}
}

// TestTornWriteRecovers: a write torn mid-record (power fails while the
// kernel is copying the buffer) errors to the client and fail-stops; the
// next recovery truncates the torn bytes and keeps every acked write.
func TestTornWriteRecovers(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil)
	s, e := mustOpen(t, dir, disk.Options{FS: inj})

	writeHistory(t, s, 10, 2)
	inj.TornWrite(3) // next record: 3 bytes reach the disk, then "power loss"
	if _, err := s.Write("torn", kvstore.Value{"v": "x"}, 1); err == nil {
		t.Fatal("torn write acked")
	}
	if e.Fault() == nil {
		t.Fatal("engine not fail-stopped after torn write")
	}
	s.Close()

	s2, e2 := mustOpen(t, dir, disk.Options{})
	defer e2.Close()
	checkHistory(t, s2, 10, 2)
	if _, _, err := s2.Read("torn", kvstore.Latest); !errors.Is(err, kvstore.ErrNotFound) {
		t.Fatalf("torn unacked write resurrected whole: %v", err)
	}
}

// TestRandomFaultDurability is the fault-injection analogue of the WAL
// every-prefix property tests: across seeded-random schedules of fsync and
// write faults, every acknowledged write survives recovery and every write
// missing after recovery was errored to the client — no silently dropped
// acks.
func TestRandomFaultDurability(t *testing.T) {
	for round := 0; round < 30; round++ {
		round := round
		t.Run(fmt.Sprintf("seed=%d", round), func(t *testing.T) {
			dir := t.TempDir()
			inj := faultfs.NewSeeded(nil, int64(1000+round), faultfs.Rates{
				FsyncFail: 0.04,
				TornWrite: 0.04,
			})
			s, e := mustOpen(t, dir, disk.Options{FS: inj, SegmentBytes: 512})
			acked := map[int]bool{}
			errored := map[int]bool{}
			for i := 0; i < 60; i++ {
				_, err := s.Write("k"+strconv.Itoa(i), kvstore.Value{"v": strconv.Itoa(i)}, 1)
				if err != nil {
					errored[i] = true
					break // fail-stop: every later write would error too
				}
				acked[i] = true
			}
			_ = e // engine state checked through recovery below
			s.Close()

			s2, e2 := mustOpen(t, dir, disk.Options{})
			defer e2.Close()
			for i := 0; i < 60; i++ {
				_, _, err := s2.Read("k"+strconv.Itoa(i), kvstore.Latest)
				present := err == nil
				if acked[i] && !present {
					t.Fatalf("acked write k%d lost (round %d)", i, round)
				}
				if !acked[i] && !errored[i] && present {
					t.Fatalf("write k%d present but was never submitted (round %d)", i, round)
				}
				if !present && !errored[i] && acked[i] {
					t.Fatalf("k%d silently dropped (round %d)", i, round)
				}
			}
		})
	}
}

// TestScrubDetectsSegmentBitRot: a bit flipped in a sealed WAL segment —
// injected on the read path, as a decaying sector would — is detected by a
// scrub pass and reported as health, while the engine keeps serving writes.
func TestScrubDetectsSegmentBitRot(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil)
	// Small segments, no compaction: several sealed segments accumulate.
	s, e := mustOpen(t, dir, disk.Options{FS: inj, SegmentBytes: 256, CompactSegments: 1 << 20})
	defer e.Close()
	writeHistory(t, s, 60, 4)

	rep, err := e.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if rep.Segments == 0 {
		t.Fatalf("no sealed segments scrubbed (report %+v); shrink SegmentBytes", rep)
	}
	if len(rep.Corrupt) != 0 {
		t.Fatalf("clean directory reported corrupt: %v", rep.Corrupt)
	}

	inj.FlipBitOnRead(segName(1), 9) // rot a byte inside the first sealed segment's first record
	rep, err = e.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if len(rep.Corrupt) != 1 || rep.Corrupt[0] != segName(1) {
		t.Fatalf("scrub corrupt = %v, want [%s]", rep.Corrupt, segName(1))
	}
	// Health, not a crash: the engine is not poisoned and still acks.
	if e.Fault() != nil {
		t.Fatalf("scrub finding poisoned the engine: %v", e.Fault())
	}
	if _, err := s.Write("after-rot", kvstore.Value{"v": "1"}, 1); err != nil {
		t.Fatalf("write after scrub finding: %v", err)
	}
	fault, runs, corrupt := e.HealthSummary()
	if fault != "" || runs != 2 || len(corrupt) != 1 {
		t.Fatalf("HealthSummary = (%q, %d, %v), want (\"\", 2, 1 file)", fault, runs, corrupt)
	}
}

// TestScrubDetectsSnapshotBitRot: same for snapshots. A snapshot is a stream
// of checksummed records between a magic and a counting trailer, so a bit
// flipped anywhere in it — the header, a key, a value, the trailer — is
// flagged by a scrub pass before a recovery needs the file, and refused by
// the recovery that does.
func TestScrubDetectsSnapshotBitRot(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil)
	s, e := mustOpen(t, dir, disk.Options{FS: inj, SegmentBytes: 256, CompactSegments: 1})
	writeHistory(t, s, 200, 4)
	// Every rotation asks for a snapshot and Close waits for the one in
	// flight, so the directory is settled and holds one.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshot after 200 writes over 256-byte segments (%v)", err)
	}
	snap := filepath.Base(snaps[len(snaps)-1])
	img, err := os.ReadFile(snaps[len(snaps)-1])
	if err != nil {
		t.Fatal(err)
	}
	find := func(needle string) int64 {
		i := bytes.Index(img, []byte(needle))
		if i < 0 {
			t.Fatalf("%q not in the snapshot", needle)
		}
		return int64(i)
	}
	spots := []struct {
		what string
		off  int64
	}{
		{"header", 3},
		{"key", find("key-0") + 4},
		{"value", find("\x01v\x0212") + 3}, // attribute v = "12", key-0's fourth version
		{"trailer", int64(len(img)) - 1},
	}

	_, e2 := mustOpen(t, dir, disk.Options{FS: inj, CompactSegments: 1 << 20})
	rep, err := e2.Scrub()
	if err != nil || rep.Snapshots == 0 || len(rep.Corrupt) != 0 {
		t.Fatalf("scrub of the intact directory = %+v, %v", rep, err)
	}
	for _, spot := range spots {
		inj.FlipBitOnRead(snap, spot.off)
		rep, err := e2.Scrub()
		if err != nil {
			t.Fatalf("scrub: %v", err)
		}
		if len(rep.Corrupt) != 1 || rep.Corrupt[0] != snap {
			t.Fatalf("bit flipped in the %s (byte %d): scrub corrupt = %v, want [%s]", spot.what, spot.off, rep.Corrupt, snap)
		}
		if e2.Fault() != nil {
			t.Fatalf("snapshot rot poisoned the engine: %v", e2.Fault())
		}
	}
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	for _, spot := range spots {
		inj.FlipBitOnRead(snap, spot.off)
		if _, _, err := disk.Open(dir, quietOpts(disk.Options{FS: inj})); err == nil || !strings.Contains(err.Error(), snap) {
			t.Fatalf("bit flipped in the %s (byte %d): Open = %v, want a refusal naming %s", spot.what, spot.off, err, snap)
		}
	}
	// The file itself is sound: with the rot gone the directory recovers.
	inj.Clear()
	s3, e3 := mustOpen(t, dir, disk.Options{FS: inj})
	defer e3.Close()
	checkHistory(t, s3, 200, 4)
}

// TestBitRotOnRecoveryOfSealedSegmentFails pins the recovery side of the
// rot story: a sealed segment whose bytes read back corrupt makes Open fail
// loudly (corruption is never silently truncated away in sealed segments) —
// which is exactly why the scrub exists to catch it first.
func TestBitRotOnRecoveryOfSealedSegmentFails(t *testing.T) {
	dir := t.TempDir()
	inj := faultfs.New(nil)
	s, e := mustOpen(t, dir, disk.Options{FS: inj, SegmentBytes: 256, CompactSegments: 1 << 20})
	writeHistory(t, s, 60, 4)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	_ = s

	inj.FlipBitOnRead(segName(1), 9)
	_, _, err := disk.Open(dir, quietOpts(disk.Options{FS: inj}))
	if err == nil {
		t.Fatal("Open succeeded over a rotted sealed segment")
	}
}
