package kvstore

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

func populated(t *testing.T) *Store {
	t.Helper()
	s := New()
	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("key-%d", i)
		for ts := int64(0); ts < 5; ts++ {
			v := Value{"v": fmt.Sprintf("%d@%d", i, ts), "extra": "x"}
			if _, err := s.Write(key, v, ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	return s
}

func assertEqualStores(t *testing.T, a, b *Store) {
	t.Helper()
	ka, kb := scanKeys(t, a, ""), scanKeys(t, b, "")
	if len(ka) != len(kb) {
		t.Fatalf("key counts differ: %d vs %d", len(ka), len(kb))
	}
	for _, key := range ka {
		for ts := int64(0); ts < 5; ts++ {
			va, tsa, erra := a.Read(key, ts)
			vb, tsb, errb := b.Read(key, ts)
			if (erra == nil) != (errb == nil) || tsa != tsb || !va.Equal(vb) {
				t.Fatalf("row %s@%d differs: (%v,%d,%v) vs (%v,%d,%v)",
					key, ts, va, tsa, erra, vb, tsb, errb)
			}
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := populated(t)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualStores(t, s, loaded)
}

// TestSaveIsDeterministic: Save pages the store-wide index, so a snapshot is
// written in key order and two stores with equal contents save to equal
// bytes, whatever order their rows were created in — deletes and recreations
// included.
func TestSaveIsDeterministic(t *testing.T) {
	const rows = 3000 // several index pages
	build := func(order []int) []byte {
		s := New()
		for _, i := range order {
			key := fmt.Sprintf("k/%d", i) // not zero-padded: insert order is not key order
			if _, err := s.Write(key, PackAttrs("v", fmt.Sprint(i)), 1); err != nil {
				t.Fatal(err)
			}
			if i%7 == 0 {
				s.Delete(key)
			}
			if i%14 == 0 {
				if _, err := s.Write(key, PackAttrs("v", "again"), 2); err != nil {
					t.Fatal(err)
				}
			}
		}
		var buf bytes.Buffer
		if err := s.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	ascending := make([]int, rows)
	for i := range ascending {
		ascending[i] = i
	}
	want := build(ascending)
	for seed := int64(1); seed <= 3; seed++ {
		if got := build(rand.New(rand.NewSource(seed)).Perm(rows)); !bytes.Equal(got, want) {
			t.Fatalf("insert order %d saved %d bytes that differ from the ascending build's %d", seed, len(got), len(want))
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
	// The right magic over records that are not records is rejected too.
	if _, err := Load(strings.NewReader(snapshotMagic + "\x03\x01\x02")); err == nil {
		t.Fatal("magic over garbage accepted")
	}
}

// image returns the snapshot stream of a store of rows single-version rows
// with valueBytes-byte values.
func image(t testing.TB, rows, valueBytes int) (*Store, []byte) {
	t.Helper()
	s := New()
	val := strings.Repeat("x", valueBytes)
	for i := 0; i < rows; i++ {
		if _, err := s.Write(fmt.Sprintf("row/%05d", i), PackAttrs("v", val), int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return s, buf.Bytes()
}

// TestLoadDetectsEveryFlipAndCut is the snapshot format's integrity claim,
// exhaustively on a 50-row image: no single flipped bit and no truncation —
// a cut on a record boundary included — loads, or passes the scrub's
// VerifySnapshot. (The gob image this format replaced loaded 76 % of them.)
func TestLoadDetectsEveryFlipAndCut(t *testing.T) {
	_, img := image(t, 50, 12)
	if _, err := Load(bytes.NewReader(img)); err != nil {
		t.Fatalf("intact image: %v", err)
	}
	if n, err := VerifySnapshot(bytes.NewReader(img)); err != nil || n != 50 {
		t.Fatalf("intact image verifies as %d records, %v", n, err)
	}
	rejected := func(what string, b []byte) {
		if _, err := Load(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: loaded", what)
		}
		if _, err := VerifySnapshot(bytes.NewReader(b)); err == nil {
			t.Fatalf("%s: verified", what)
		}
	}
	for cut := 0; cut < len(img); cut++ {
		rejected(fmt.Sprintf("cut at %d of %d", cut, len(img)), img[:cut])
	}
	flipped := make([]byte, len(img))
	for off := range img {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, img)
			flipped[off] ^= 1 << bit
			rejected(fmt.Sprintf("bit %d of byte %d flipped", bit, off), flipped)
		}
	}
	rejected("a byte after the trailer", append(append([]byte{}, img...), 0))
}

// allocatedBy reports the bytes fn allocated (other goroutines' allocations
// included; the tests using it run nothing else).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += len(p); return len(p), nil }

// TestSaveStreams: Save walks the store a page of keys at a time and
// encodes into one reused record, so what it allocates is a small multiple of
// what it writes — not a copy of the store (the gob Save allocated 63.6× its
// output on this store).
func TestSaveStreams(t *testing.T) {
	s, _ := image(t, 20000, 40)
	var w countingWriter
	var err error
	grew := allocatedBy(func() { err = s.Save(&w) })
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Save wrote %d bytes and allocated %d (%.2fx)", w.n, grew, float64(grew)/float64(w.n))
	if grew >= 4*uint64(w.n) {
		t.Fatalf("Save allocated %d bytes to write %d", grew, w.n)
	}
}

// FuzzLoad: a snapshot file is whatever the disk returns. Loading arbitrary
// bytes never panics, allocates by the bytes it was given (readBody's rule: a
// length prefix buys nothing until its bytes arrive) plus a constant, and
// yields a store only from a stream that runs to its trailer — one that still
// verifies, and no longer loads once its last byte is gone.
func FuzzLoad(f *testing.F) {
	_, img := image(f, 12, 10)
	f.Add(img)
	f.Add(img[:len(img)/2])
	f.Add(img[:len(img)-len(AppendRecord(nil, Mutation{Op: OpEnd, TS: 12}))]) // cut on the last record boundary
	for _, g := range goldenHex {
		rec, _ := hex.DecodeString(g)
		f.Add(append([]byte(snapshotMagic), rec...))
	}
	gob, err := os.ReadFile("disk/testdata/parent-b87221d/snap-00000000000000000101.snap")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gob) // the format this one replaced
	f.Fuzz(func(t *testing.T, data []byte) {
		var s *Store
		var err error
		grew := allocatedBy(func() { s, err = Load(bytes.NewReader(data)) })
		// A row costs its record's bytes several times over (row, version
		// slice, map and index entries); an empty store and one bodyStep are
		// the constant.
		if limit := uint64(64*len(data) + 512<<10); grew > limit {
			t.Fatalf("loading %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil {
			if s != nil {
				t.Fatalf("a store came back with the error %v", err)
			}
			return
		}
		if _, err := VerifySnapshot(bytes.NewReader(data)); err != nil {
			t.Fatalf("loaded, but does not verify: %v", err)
		}
		if _, err := Load(bytes.NewReader(data[:len(data)-1])); err == nil {
			t.Fatal("loaded without the last byte of its trailer")
		}
	})
}

// goldenHex are records as commit b87221d wrote them (the disk package pins
// the whole table, record by record, in TestRecordBytesGolden).
var goldenHex = []string{
	"164fd27ab0010a646174612f67302f6b310e0101760568656c6c6f",
	"0af8c2483602086c6f672f67302f35",
	"0d6759bd33030a646174612f67302f6b3112",
}

func TestSaveClosedStore(t *testing.T) {
	s := New()
	s.Close()
	var buf bytes.Buffer
	if err := s.Save(&buf); !errors.Is(err, ErrClosed) {
		t.Fatalf("Save after Close: %v", err)
	}
}

// TestLoadedStoreIsFullyFunctional: a reloaded store accepts the full
// operation set, including conditional writes against restored state.
func TestLoadedStoreIsFullyFunctional(t *testing.T) {
	s := New()
	if err := s.CheckAndWrite("paxos/g/1", "seq", "", Value{"seq": "1", "nextBal": "65537"}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The acceptor's CAS chain continues where it left off.
	if err := loaded.CheckAndWrite("paxos/g/1", "seq", "1", Value{"seq": "2", "nextBal": "131073"}); err != nil {
		t.Fatalf("CAS against restored state: %v", err)
	}
	if err := loaded.CheckAndWrite("paxos/g/1", "seq", "1", Value{"seq": "9"}); !errors.Is(err, ErrCheckFailed) {
		t.Fatalf("stale CAS accepted after reload: %v", err)
	}
}
