package replog

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
)

// TestPoolManyGroups drives appends into many groups of one Pool — far more
// groups than pool workers — from concurrent goroutines, and checks every
// group's watermark advances to its full run: the same per-group ordering as
// a Log's own one-worker pool, on shared workers.
func TestPoolManyGroups(t *testing.T) {
	store := kvstore.New()
	pool := NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()

	const groups, entries = 32, 25
	logs := make([]*Log, groups)
	for g := range logs {
		logs[g] = pool.Open(store, fmt.Sprintf("g%02d", g))
		defer logs[g].Close()
	}
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := logs[g]
			for pos := int64(1); pos <= entries; pos++ {
				entry := testEntry(fmt.Sprintf("t%d-%d", g, pos), pos-1,
					map[string]string{"k": fmt.Sprintf("v%d", pos)})
				if _, err := l.Append(pos, entry); err != nil {
					t.Errorf("group %d append %d: %v", g, pos, err)
					return
				}
			}
			if err := l.WaitApplied(waitCtx(t), entries); err != nil {
				t.Errorf("group %d wait: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	for g, l := range logs {
		if got := l.Applied(); got != entries {
			t.Fatalf("group %d applied = %d, want %d", g, got, entries)
		}
		v, ts, err := store.Read(DataKey(l.Group(), "k"), kvstore.Latest)
		if err != nil || v["v"] != fmt.Sprintf("v%d", entries) || ts != entries {
			t.Fatalf("group %d data row = %v @%d (%v)", g, v, ts, err)
		}
	}
}

// TestPoolNotifyDuringDrain pins the schedule/drain race: a notify landing
// while the shard worker is mid-drain must re-queue the log, never drop the
// wakeup (the sched flag is cleared before drain runs).
func TestPoolNotifyDuringDrain(t *testing.T) {
	pool := NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	l := pool.Open(kvstore.New(), "g")
	defer l.Close()
	for round := int64(0); round < 200; round++ {
		pos := round*2 + 1
		if _, err := l.Append(pos, testEntry(fmt.Sprintf("a%d", pos), pos-1, nil)); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(pos+1, testEntry(fmt.Sprintf("a%d", pos+1), pos, nil)); err != nil {
			t.Fatal(err)
		}
		if err := l.WaitApplied(waitCtx(t), pos+1); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

// TestPoolCloseWithQueuedWork checks that closing a Log and then its Pool is
// safe with queued work, and that a wait on the closed log returns ErrClosed
// rather than hanging. (A group first used after its Service closed opens
// closed: core's TestGroupFirstUsedAfterCloseOpensClosed.)
func TestPoolCloseWithQueuedWork(t *testing.T) {
	pool := NewPool(runtime.GOMAXPROCS(0))
	l := pool.Open(kvstore.New(), "g")
	for pos := int64(1); pos <= 10; pos++ {
		if _, err := l.Append(pos, testEntry(fmt.Sprintf("c%d", pos), pos-1, nil)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	pool.Close()
	if err := l.WaitApplied(waitCtx(t), 11); err != ErrClosed {
		t.Fatalf("wait on a closed log = %v, want ErrClosed", err)
	}
}

// TestOpenLeavesNoGoroutine checks that a Log from Open owns its drain: the
// one-worker pool it runs on exits in Close, leaving no goroutine behind.
func TestOpenLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		l := Open(kvstore.New(), "g")
		if _, err := l.Append(1, testEntry("o1", 0, nil)); err != nil {
			t.Fatal(err)
		}
		if err := l.WaitApplied(waitCtx(t), 1); err != nil {
			t.Fatal(err)
		}
		l.Close()
	}
	// A worker past its last line may not have left yet: give it a moment.
	for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines before 20 Open/Close, %d after: a drain worker outlived its Log",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseFromCompletion checks that a completion fired by a drain may
// close its own Log from Open: Close tells the owned pool's worker to exit
// and does not wait for the drain that is calling it.
func TestCloseFromCompletion(t *testing.T) {
	l := Open(kvstore.New(), "g")
	done := make(chan struct{})
	l.When(1, false, func(err error) {
		if err != nil {
			t.Errorf("applied 1: %v", err)
		}
		l.Close()
		close(done)
	})
	if _, err := l.Append(1, testEntry("c1", 0, nil)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Close called from a completion did not return")
	}
	if err := l.WaitApplied(waitCtx(t), 2); err != ErrClosed {
		t.Fatalf("WaitApplied after Close = %v, want ErrClosed", err)
	}
}

func TestGroupShardStable(t *testing.T) {
	if groupShard("users/42") != groupShard("users/42") {
		t.Fatal("groupShard not deterministic")
	}
	distinct := map[uint32]bool{}
	for i := 0; i < 64; i++ {
		distinct[groupShard(fmt.Sprintf("g%d", i))%8] = true
	}
	if len(distinct) < 4 {
		t.Fatalf("64 groups landed on %d of 8 shards — hash badly skewed", len(distinct))
	}
}
