package replog

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
)

// waitingLen is the length of l's completion list.
func waitingLen(l *Log) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.waiting)
}

// TestWhenFiresOnceWhereDue: a completion already due fires on the caller's
// goroutine before When returns; one that is not fires once, from the drain
// that covers it — the row for a logged one above a gap, the watermark for
// the others.
func TestWhenFiresOnceWhereDue(t *testing.T) {
	l, _ := openLog(t)
	fired := make(chan string, 8)
	note := func(name string) func(error) {
		return func(err error) {
			if err != nil {
				t.Errorf("%s: %v", name, err)
			}
			fired <- name
		}
	}
	l.When(0, false, note("due"))
	select {
	case name := <-fired:
		if name != "due" {
			t.Fatalf("fired %s, want due", name)
		}
	default:
		t.Fatal("a due completion did not fire before When returned")
	}
	l.When(2, true, note("logged 2"))
	l.When(2, false, note("applied 2"))
	if _, err := l.Append(2, testEntry("t2", 1, map[string]string{"x": "2"})); err != nil {
		t.Fatal(err)
	}
	if name := <-fired; name != "logged 2" {
		t.Fatalf("fired %s, want logged 2 while position 1 is missing", name)
	}
	if _, err := l.Append(1, testEntry("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	if name := <-fired; name != "applied 2" {
		t.Fatalf("fired %s, want applied 2", name)
	}
	time.Sleep(10 * time.Millisecond)
	if len(fired) != 0 || waitingLen(l) != 0 {
		t.Fatalf("%d more fired, %d still waiting; want none", len(fired), waitingLen(l))
	}
}

// TestWhenFailsWithTheLog: completions still waiting when the log fails fire
// with its sticky error, and those waiting when it closes with ErrClosed, as
// does one queued after.
func TestWhenFailsWithTheLog(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g")
	t.Cleanup(l.Close)
	errs := make(chan error, 4)
	l.When(5, false, func(err error) { errs <- err })
	store.Close()
	if _, err := l.Append(1, testEntry("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	if err := <-errs; err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("waiting completion fired with %v, want the apply failure", err)
	}

	l2, _ := openLog(t)
	l2.When(5, false, func(err error) { errs <- err })
	l2.Close()
	l2.When(6, true, func(err error) { errs <- err })
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("completion %d fired with %v, want ErrClosed", i, err)
		}
	}
}

// TestWaitCancelledLeavesNoCompletion: ten thousand WaitApplied calls ended
// by their contexts — sequential and concurrent — take their completions
// off the list.
func TestWaitCancelledLeavesNoCompletion(t *testing.T) {
	l, _ := openLog(t)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5000; i++ {
		if err := l.WaitApplied(cancelled, 99); !errors.Is(err, context.Canceled) {
			t.Fatalf("wait %d = %v, want context.Canceled", i, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < 5000; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.WaitApplied(ctx, 99); !errors.Is(err, context.Canceled) {
				t.Errorf("concurrent wait = %v, want context.Canceled", err)
			}
		}()
	}
	time.Sleep(20 * time.Millisecond)
	cancel()
	wg.Wait()
	if n := waitingLen(l); n != 0 {
		t.Fatalf("%d completions left on the list, want 0", n)
	}
}
