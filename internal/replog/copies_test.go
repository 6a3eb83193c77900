package replog

import (
	"runtime"
	"strings"
	"testing"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/paxos"
)

// heapDelta runs fn and returns the bytes and objects the heap allocated
// meanwhile.
func heapDelta(fn func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestAppendChosenSharesTheStandingVote: a replica keeps one copy of an
// entry. When its own row of the position already holds the entry's bytes —
// the vote its accept cast — AppendChosen queues over the row's
// string; only a replica that missed the accept copies the bytes it is
// handed.
func TestAppendChosenSharesTheStandingVote(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	store := kvstore.New()
	acc := paxos.NewAcceptor(store)
	l := Open(store, "g")
	l.Close() // drains stopped, so only the appends allocate
	entry := testEntry("t1", 0, map[string]string{"k": strings.Repeat("v", 64<<10)})
	const runs = 10
	var voted, missed uint64
	for pos := int64(1); pos <= 2*runs; pos++ {
		hasVote := pos <= runs
		if hasVote {
			if res, err := acc.Accept("g", pos, paxos.FastBallot, entry); err != nil || !res.OK {
				t.Fatalf("accept %d: %+v %v", pos, res, err)
			}
		}
		b, _ := heapDelta(func() {
			if _, err := l.AppendChosen(pos, paxos.FastBallot, entry); err != nil {
				t.Fatal(err)
			}
		})
		if hasVote {
			voted += b
		} else {
			missed += b
		}
	}
	t.Logf("%d-byte entry: %d bytes per append over a vote, %d with none", len(entry), voted/runs, missed/runs)
	if per := voted / runs; per >= uint64(len(entry))/2 {
		t.Errorf("an append over the replica's vote allocates %d bytes for a %d-byte entry: it copies the entry", per, len(entry))
	}
	if per := missed / runs; per < uint64(len(entry)) {
		t.Errorf("an append with no vote allocates only %d bytes for a %d-byte entry: the bound above proves nothing", per, len(entry))
	}
}

// TestDrainAllocatesWhatTheStoreKeeps: a drain pass applying a 4-write entry
// over a standing vote allocates the values the store keeps and the names it
// looks the log and meta rows up by — no decoded entry, no per-entry map,
// per-pass list or batch scratch, no box per write, and no name for a data
// row that exists.
func TestDrainAllocatesWhatTheStoreKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	store := kvstore.New()
	acc := paxos.NewAcceptor(store)
	l := open(store, "g", &Pool{workers: make([]applyWorker, 1)}) // no worker runs: the test drains
	entry := testEntry("t1", 0, map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"})
	const runs = 200
	var objects uint64
	for pos := int64(1); pos <= 2*runs; pos++ {
		if res, err := acc.Accept("g", pos, paxos.FastBallot, entry); err != nil || !res.OK {
			t.Fatalf("accept %d: %+v %v", pos, res, err)
		}
		if _, err := l.AppendChosen(pos, paxos.FastBallot, entry); err != nil {
			t.Fatal(err)
		}
		_, n := heapDelta(l.drain)
		if pos > runs { // the first half warms the rows, the cache and the scratch
			objects += n
		}
		if l.Applied() != pos {
			t.Fatalf("applied %d, want %d", l.Applied(), pos)
		}
	}
	// Kept: the 4 packed values and the meta row's. Built and dropped: the
	// log row's name for the vote check, and the meta row's name, box and
	// watermark digits. The data rows' names are built in the drain's
	// reused buffer (a write that adds its row copies its name). A version
	// slice that grows adds one now and then.
	const budget = 4 + 1 + 1 + 3
	t.Logf("a drain pass allocates %.2f objects", float64(objects)/runs)
	if per := float64(objects) / runs; per > budget+0.5 {
		t.Errorf("a drain pass of a 4-write entry allocates %.1f objects, want at most %d", per, budget)
	}
}

// TestAppendChosenAllocatesOnlyTheRowName: queuing a fresh position whose
// vote stands checks the bytes and holds the vote's string — no decode, no
// copy — so the one allocation is the log row's name, built to read the vote.
func TestAppendChosenAllocatesOnlyTheRowName(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	store := kvstore.New()
	acc := paxos.NewAcceptor(store)
	l := Open(store, "g")
	l.Close() // drains stopped, so only the appends allocate
	entry := testEntry("t1", 0, map[string]string{"a": "1", "b": "2", "c": "3", "d": "4"})
	const runs = 200
	var objects uint64
	for pos := int64(1); pos <= runs; pos++ {
		if res, err := acc.Accept("g", pos, paxos.FastBallot, entry); err != nil || !res.OK {
			t.Fatalf("accept %d: %+v %v", pos, res, err)
		}
		_, n := heapDelta(func() {
			if _, err := l.AppendChosen(pos, paxos.FastBallot, entry); err != nil {
				t.Fatal(err)
			}
		})
		objects += n
	}
	// The pending set and its list of unlogged positions grow now and then.
	t.Logf("an append allocates %.2f objects", float64(objects)/runs)
	if per := float64(objects) / runs; per > 1.5 {
		t.Errorf("an append over a standing vote allocates %.1f objects, want the row's name alone", per)
	}
}

// TestReadMultiAllocatesOnlyItsResult: a 4-key ReadMulti — the read-scan
// workload's commonest op — pins its rows on the stack, by ApplyBatch's
// walk, and allocates only the result it returns. A walk of its own, with a
// list per touched shard and a row list beside the result, made 6.
func TestReadMultiAllocatesOnlyItsResult(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	store := kvstore.New()
	keys := []string{"attr1", "attr17", "attr42", "attr63"}
	for i, k := range keys[:3] { // the last key is missing
		if _, err := store.Write(k, kvstore.Value{"v": k}, int64(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	var res []kvstore.MultiResult
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		if res, err = store.ReadMulti(keys, kvstore.Latest); err != nil {
			t.Fatal(err)
		}
	})
	if !res[0].Found || res[3].Found {
		t.Fatalf("ReadMulti = %+v, want the first key found and the last missing", res)
	}
	if allocs > 1 {
		t.Errorf("a 4-key ReadMulti allocates %.1f objects, want 1 (its result)", allocs)
	}
}
