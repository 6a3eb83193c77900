package kvstore

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
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

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// A valid gob stream of the wrong shape is also rejected.
	if _, err := Load(bytes.NewReader([]byte{0x03, 0x01, 0x02})); err == nil {
		t.Fatal("wrong gob accepted")
	}
}

func TestSaveFileLoadFile(t *testing.T) {
	s := populated(t)
	path := filepath.Join(t.TempDir(), "store.gob")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualStores(t, s, loaded)
}

func TestLoadFileMissingIsEmptyStore(t *testing.T) {
	s, err := LoadFile(filepath.Join(t.TempDir(), "nope.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 0 {
		t.Fatalf("missing file loaded %d keys", s.Len())
	}
}

func TestSaveFileOverwritesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.gob")
	s1 := New()
	s1.Write("a", Value{"v": "1"}, 0)
	if err := s1.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	s2.Write("b", Value{"v": "2"}, 0)
	if err := s2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := loaded.Read("b", Latest); err != nil {
		t.Fatalf("new content missing: %v", err)
	}
	if _, _, err := loaded.Read("a", Latest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("old content survived: %v", err)
	}
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
