package kvstore

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestReadMissingKey(t *testing.T) {
	s := New()
	if _, _, err := s.Read("nope", Latest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read missing key: err = %v, want ErrNotFound", err)
	}
}

func TestWriteThenReadLatest(t *testing.T) {
	s := New()
	ts, err := s.Write("k", Value{"a": "1"}, 5)
	if err != nil {
		t.Fatalf("Write: %v", err)
	}
	if ts != 5 {
		t.Fatalf("Write ts = %d, want 5", ts)
	}
	v, gotTS, err := s.Read("k", Latest)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if gotTS != 5 || v["a"] != "1" {
		t.Fatalf("Read = (%v, %d), want ({a:1}, 5)", v, gotTS)
	}
}

func TestReadAtTimestampPicksNewestNotAfter(t *testing.T) {
	s := New()
	for _, ts := range []int64{1, 3, 7} {
		if _, err := s.Write("k", Value{"v": fmt.Sprint(ts)}, ts); err != nil {
			t.Fatalf("Write ts=%d: %v", ts, err)
		}
	}
	cases := []struct {
		readTS int64
		wantV  string
		wantTS int64
	}{
		{1, "1", 1},
		{2, "1", 1},
		{3, "3", 3},
		{6, "3", 3},
		{7, "7", 7},
		{100, "7", 7},
	}
	for _, c := range cases {
		v, ts, err := s.Read("k", c.readTS)
		if err != nil {
			t.Fatalf("Read@%d: %v", c.readTS, err)
		}
		if v["v"] != c.wantV || ts != c.wantTS {
			t.Errorf("Read@%d = (%v,%d), want (v:%s,%d)", c.readTS, v, ts, c.wantV, c.wantTS)
		}
	}
}

func TestReadBeforeFirstVersion(t *testing.T) {
	s := New()
	if _, err := s.Write("k", Value{"v": "x"}, 10); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Read("k", 9); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read@9: err = %v, want ErrNotFound", err)
	}
}

func TestWriteStaleRejected(t *testing.T) {
	s := New()
	if _, err := s.Write("k", Value{"v": "a"}, 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write("k", Value{"v": "b"}, 5); !errors.Is(err, ErrStaleWrite) {
		t.Fatalf("equal-ts Write: err = %v, want ErrStaleWrite", err)
	}
	if _, err := s.Write("k", Value{"v": "b"}, 3); !errors.Is(err, ErrStaleWrite) {
		t.Fatalf("older-ts Write: err = %v, want ErrStaleWrite", err)
	}
	// The stale write must not have modified the row.
	v, ts, err := s.Read("k", Latest)
	if err != nil || ts != 5 || v["v"] != "a" {
		t.Fatalf("after stale writes Read = (%v,%d,%v), want ({v:a},5,nil)", v, ts, err)
	}
}

func TestWriteAutoTimestamp(t *testing.T) {
	s := New()
	ts0, err := s.Write("k", Value{"v": "a"}, -1)
	if err != nil || ts0 != 0 {
		t.Fatalf("first auto Write = (%d,%v), want (0,nil)", ts0, err)
	}
	if _, err := s.Write("k", Value{"v": "b"}, 9); err != nil {
		t.Fatal(err)
	}
	ts2, err := s.Write("k", Value{"v": "c"}, -1)
	if err != nil || ts2 != 10 {
		t.Fatalf("auto Write after ts 9 = (%d,%v), want (10,nil)", ts2, err)
	}
}

func TestWriteIdempotent(t *testing.T) {
	s := New()
	if err := s.WriteIdempotent("k", Value{"v": "a"}, 3); err != nil {
		t.Fatal(err)
	}
	// Exact replay is fine.
	if err := s.WriteIdempotent("k", Value{"v": "a"}, 3); err != nil {
		t.Fatalf("replay: %v", err)
	}
	// Conflicting rewrite of the same position is not.
	if err := s.WriteIdempotent("k", Value{"v": "b"}, 3); !errors.Is(err, ErrStaleWrite) {
		t.Fatalf("conflicting rewrite: err = %v, want ErrStaleWrite", err)
	}
	// Backfill of an older, never-written position keeps order.
	if err := s.WriteIdempotent("k", Value{"v": "z"}, 7); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteIdempotent("k", Value{"v": "m"}, 5); err != nil {
		t.Fatalf("backfill: %v", err)
	}
	v, ts, err := s.Read("k", 6)
	if err != nil || ts != 5 || v["v"] != "m" {
		t.Fatalf("Read@6 = (%v,%d,%v), want ({v:m},5,nil)", v, ts, err)
	}
	v, ts, _ = s.Read("k", Latest)
	if ts != 7 || v["v"] != "z" {
		t.Fatalf("latest = (%v,%d), want ({v:z},7)", v, ts)
	}
}

func TestCheckAndWrite(t *testing.T) {
	s := New()
	// Empty row: test against "" succeeds.
	if err := s.CheckAndWrite("k", "nextBal", "", Value{"nextBal": "5"}); err != nil {
		t.Fatalf("CAW on empty row: %v", err)
	}
	// Wrong expectation fails and does not write.
	err := s.CheckAndWrite("k", "nextBal", "4", Value{"nextBal": "9"})
	if !errors.Is(err, ErrCheckFailed) {
		t.Fatalf("CAW mismatch: err = %v, want ErrCheckFailed", err)
	}
	v, _, _ := s.Read("k", Latest)
	if v["nextBal"] != "5" {
		t.Fatalf("row changed by failed CAW: %v", v)
	}
	// Correct expectation succeeds.
	if err := s.CheckAndWrite("k", "nextBal", "5", Value{"nextBal": "9", "vote": "x"}); err != nil {
		t.Fatalf("CAW match: %v", err)
	}
	v, _, _ = s.Read("k", Latest)
	if v["nextBal"] != "9" || v["vote"] != "x" {
		t.Fatalf("after CAW: %v", v)
	}
}

func TestCheckAndWriteMissingAttrTreatedAsEmpty(t *testing.T) {
	s := New()
	if _, err := s.Write("k", Value{"other": "1"}, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.CheckAndWrite("k", "absent", "", Value{"absent": "now"}); err != nil {
		t.Fatalf("CAW on missing attr: %v", err)
	}
}

func TestApplyBatchReplace(t *testing.T) {
	s := New()
	for ts := int64(0); ts < 3; ts++ {
		if _, err := s.Write("row", Value{"n": fmt.Sprint(ts)}, ts); err != nil {
			t.Fatal(err)
		}
	}
	// A replace-latest write discards the history, whatever its timestamp.
	for _, ts := range []int64{7, 7, 2} {
		w := BatchWrite{Key: "row", Value: Value{"n": fmt.Sprint("r", ts)}, TS: ts, Replace: true}
		if err := s.ApplyBatch([]BatchWrite{w}); err != nil {
			t.Fatal(err)
		}
		v, vts, err := s.Read("row", Latest)
		if err != nil || vts != ts || v["n"] != fmt.Sprint("r", ts) || s.Versions("row") != 1 {
			t.Fatalf("after replace at %d: %v@%d (%d versions) %v", ts, v, vts, s.Versions("row"), err)
		}
	}
}

func TestValueCloneIsolation(t *testing.T) {
	s := New()
	in := Value{"a": "1"}
	if _, err := s.Write("k", in, 0); err != nil {
		t.Fatal(err)
	}
	in["a"] = "mutated"
	v, _, _ := s.Read("k", Latest)
	if v["a"] != "1" {
		t.Fatalf("store shared caller's map: %v", v)
	}
	v["a"] = "mutated-out"
	v2, _, _ := s.Read("k", Latest)
	if v2["a"] != "1" {
		t.Fatalf("store shared returned map: %v", v2)
	}
}

func TestGC(t *testing.T) {
	s := New()
	for ts := int64(0); ts < 10; ts++ {
		if _, err := s.Write("k", Value{"v": fmt.Sprint(ts)}, ts); err != nil {
			t.Fatal(err)
		}
	}
	dropped := s.GC("k", 6)
	if dropped != 6 {
		t.Fatalf("GC dropped %d, want 6", dropped)
	}
	// Reads at >= 6 still work.
	v, ts, err := s.Read("k", 6)
	if err != nil || ts != 6 || v["v"] != "6" {
		t.Fatalf("Read@6 after GC = (%v,%d,%v)", v, ts, err)
	}
	// Reads below the kept horizon are gone.
	if _, _, err := s.Read("k", 5); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read@5 after GC: err = %v, want ErrNotFound", err)
	}
	if n := s.Versions("k"); n != 4 {
		t.Fatalf("Versions = %d, want 4", n)
	}
	if d := s.GC("k", 0); d != 0 {
		t.Fatalf("GC below horizon dropped %d, want 0", d)
	}
}

func TestKeysAndLen(t *testing.T) {
	s := New()
	for _, k := range []string{"b", "a", "c"} {
		if _, err := s.Write(k, Value{"v": "1"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	keys := scanKeys(t, s, "")
	if len(keys) != 3 || keys[0] != "a" || keys[1] != "b" || keys[2] != "c" {
		t.Fatalf("keys = %v", keys)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestDelete(t *testing.T) {
	s := New()
	if _, err := s.Write("k", Value{"v": "1"}, 0); err != nil {
		t.Fatal(err)
	}
	s.Delete("k")
	if _, _, err := s.Read("k", Latest); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after Delete: %v", err)
	}
	if s.Versions("k") != 0 {
		t.Fatal("versions survived Delete")
	}
	// Deleting a missing key is a no-op.
	s.Delete("absent")
	// The key is writable again from scratch.
	if _, err := s.Write("k", Value{"v": "2"}, 0); err != nil {
		t.Fatalf("rewrite after Delete: %v", err)
	}
}

// scanKeys returns every key under prefix, paging ScanPrefix two rows at a
// time so the cursor logic is exercised too.
func scanKeys(t *testing.T, s *Store, prefix string) []string {
	t.Helper()
	var keys []string
	after := ""
	for {
		rows, more, err := s.ScanPrefix(prefix, after, 2, Latest)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			keys = append(keys, r.Key)
		}
		if !more {
			return keys
		}
		after = rows[len(rows)-1].Key
	}
}

func TestScanPrefixKeys(t *testing.T) {
	s := New()
	for _, k := range []string{"log/g/1", "log/g/2", "log/other/1", "data/g/x"} {
		if _, err := s.Write(k, Value{"v": "1"}, 0); err != nil {
			t.Fatal(err)
		}
	}
	got := scanKeys(t, s, "log/g/")
	if len(got) != 2 || got[0] != "log/g/1" || got[1] != "log/g/2" {
		t.Fatalf("keys under log/g/ = %v", got)
	}
	if got := scanKeys(t, s, "nope/"); len(got) != 0 {
		t.Fatalf("unexpected matches: %v", got)
	}
	// A prefix equal to a full key matches that key.
	if got := scanKeys(t, s, "data/g/x"); len(got) != 1 {
		t.Fatalf("exact prefix = %v", got)
	}
}

func TestClose(t *testing.T) {
	s := New()
	s.Close()
	if _, err := s.Write("k", Value{}, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("Write after Close: %v", err)
	}
	if _, _, err := s.Read("k", Latest); !errors.Is(err, ErrClosed) {
		t.Fatalf("Read after Close: %v", err)
	}
	if err := s.CheckAndWrite("k", "a", "", Value{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("CheckAndWrite after Close: %v", err)
	}
}

// TestCheckAndWriteMutualExclusion verifies the atomicity contract the Paxos
// acceptor depends on: of N concurrent conditional writes racing on the same
// expected value, exactly one wins.
func TestCheckAndWriteMutualExclusion(t *testing.T) {
	s := New()
	const racers = 64
	var wins int32
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := s.CheckAndWrite("pos", "nextBal", "", Value{"nextBal": fmt.Sprint(i)})
			if err == nil {
				mu.Lock()
				wins++
				mu.Unlock()
			} else if !errors.Is(err, ErrCheckFailed) {
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if wins != 1 {
		t.Fatalf("%d racers won, want exactly 1", wins)
	}
}

func TestConcurrentDistinctKeys(t *testing.T) {
	s := New()
	const keys = 50
	var wg sync.WaitGroup
	for i := 0; i < keys; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := fmt.Sprintf("key-%d", i)
			for ts := int64(0); ts < 20; ts++ {
				if _, err := s.Write(k, Value{"v": fmt.Sprint(ts)}, ts); err != nil {
					t.Errorf("Write %s@%d: %v", k, ts, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%d", i)
		v, ts, err := s.Read(k, Latest)
		if err != nil || ts != 19 || v["v"] != "19" {
			t.Fatalf("Read %s = (%v,%d,%v)", k, v, ts, err)
		}
	}
}
