package kvstore

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func TestReadMultiMatchesRead(t *testing.T) {
	s := New()
	rng := rand.New(rand.NewSource(7))
	const nkeys = 40
	for i := 0; i < nkeys; i++ {
		for ts := int64(1); ts <= int64(rng.Intn(5)); ts++ {
			if err := s.WriteIdempotent(fmt.Sprintf("k%d", i), Value{"v": fmt.Sprintf("%d@%d", i, ts)}, ts); err != nil {
				t.Fatal(err)
			}
		}
	}
	var keys []string
	var names [][]byte // ReadAttr's names of keys, in one buffer
	var buf []byte
	for i := 0; i < nkeys+5; i++ { // +5 never-written keys
		keys = append(keys, fmt.Sprintf("k%d", i))
		at := len(buf)
		buf = fmt.Appendf(buf, "k%d", i)
		names = append(names, buf[at:])
	}
	for _, ts := range []int64{Latest, 0, 1, 2, 3, 10} {
		got, err := s.ReadMulti(keys, ts)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(keys) {
			t.Fatalf("ts=%d: %d results for %d keys", ts, len(got), len(keys))
		}
		vals, founds := make([]string, len(keys)), make([]bool, len(keys))
		if err := s.ReadAttr(names, ts, "v", vals, founds); err != nil {
			t.Fatal(err)
		}
		for i, k := range keys {
			v, vts, err := s.Read(k, ts)
			if err == ErrNotFound {
				if got[i].Found || founds[i] || vals[i] != "" {
					t.Fatalf("ts=%d key=%s: ReadMulti found=%v, ReadAttr (%q, %v), Read did not", ts, k, got[i].Found, vals[i], founds[i])
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			if !got[i].Found || got[i].TS != vts || !got[i].Value.Unpack().Equal(v) {
				t.Fatalf("ts=%d key=%s: ReadMulti %+v, Read %v@%d", ts, k, got[i], v, vts)
			}
			if !founds[i] || vals[i] != v["v"] {
				t.Fatalf("ts=%d key=%s: ReadAttr (%q, %v), Read %v@%d", ts, k, vals[i], founds[i], v, vts)
			}
		}
	}
	vals, founds := make([]string, len(keys)), make([]bool, len(keys))
	if n := testing.AllocsPerRun(100, func() { _ = s.ReadAttr(names, Latest, "v", vals, founds) }); n != 0 {
		t.Fatalf("ReadAttr of %d names allocates %v times per call, want none", len(names), n)
	}
}

func TestReadMultiEmptyAndClosed(t *testing.T) {
	s := New()
	if res, err := s.ReadMulti(nil, Latest); err != nil || len(res) != 0 {
		t.Fatalf("empty: %v %v", res, err)
	}
	if err := s.ReadAttr(nil, Latest, "v", nil, nil); err != nil {
		t.Fatalf("empty ReadAttr: %v", err)
	}
	s.Close()
	if _, err := s.ReadMulti([]string{"a"}, Latest); err != ErrClosed {
		t.Fatalf("closed: %v", err)
	}
	if err := s.ReadAttr([][]byte{[]byte("a")}, Latest, "v", make([]string, 1), make([]bool, 1)); err != ErrClosed {
		t.Fatalf("closed ReadAttr: %v", err)
	}
}

func TestReadMultiReturnsCopies(t *testing.T) {
	s := New()
	s.WriteIdempotent("a", Value{"v": "1"}, 1)
	res, err := s.ReadMulti([]string{"a"}, Latest)
	if err != nil {
		t.Fatal(err)
	}
	res[0].Value.Unpack()["v"] = "mutated"
	if v, _, _ := s.Read("a", Latest); v["v"] != "1" {
		t.Fatal("ReadMulti leaked internal storage")
	}
}

func TestReadMultiConcurrentWithWrites(t *testing.T) {
	s := New()
	keys := make([]string, 16)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ts := int64(1); ; ts++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, k := range keys {
				s.WriteIdempotent(k, Value{"v": fmt.Sprint(ts)}, ts)
			}
		}
	}()
	for i := 0; i < 200; i++ {
		if _, err := s.ReadMulti(keys, Latest); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// BenchmarkReadMulti compares a per-key Read loop against one ReadMulti pass
// for an 8-key batch (the storage-layer half of the ReadMulti win).
func BenchmarkReadMulti(b *testing.B) {
	s := New()
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("attr%d", i*13)
		s.WriteIdempotent(keys[i], Value{"v": "value"}, 1)
	}
	b.Run("perkey", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, k := range keys {
				if _, _, err := s.Read(k, 1); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("multi", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.ReadMulti(keys, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
}
