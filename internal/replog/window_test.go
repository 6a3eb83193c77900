package replog

import (
	"context"
	"errors"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/wal"
)

func winEntry(id string, writes map[string]string) wal.Entry {
	return wal.NewEntry(wal.Txn{ID: id, Origin: "A", Writes: writes})
}

func TestWindowReserveBlocksAtLimit(t *testing.T) {
	w := NewWindow(2)
	ctx := waitCtx(t)
	for pos := int64(1); pos <= 2; pos++ {
		if err := w.Reserve(ctx); err != nil {
			t.Fatal(err)
		}
		w.Start(pos, winEntry("t", nil))
	}
	if got := w.InFlight(); got != 2 {
		t.Fatalf("InFlight = %d, want 2", got)
	}
	// A third Reserve must block until a position resolves.
	full, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := w.Reserve(full); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Reserve over limit = %v, want deadline exceeded", err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Reserve(ctx) }()
	w.Resolve(1)
	if err := <-done; err != nil {
		t.Fatalf("Reserve after resolve: %v", err)
	}
}

func TestWindowEntryAndIssuedMax(t *testing.T) {
	w := NewWindow(4)
	if got := w.IssuedMax(); got != 0 {
		t.Fatalf("IssuedMax empty = %d, want 0", got)
	}
	w.Start(3, winEntry("t3", map[string]string{"a": "1"}))
	w.Start(4, winEntry("t4", map[string]string{"b": "2"}))
	e, ok := w.Entry(3)
	if !ok || !e.Contains("t3") {
		t.Fatalf("Entry(3) = %v %v", e, ok)
	}
	if _, ok := w.Entry(5); ok {
		t.Fatal("Entry(5) should be absent")
	}
	if got := w.IssuedMax(); got != 4 {
		t.Fatalf("IssuedMax = %d, want 4", got)
	}
	// IssuedMax survives resolution: positions are never re-issued.
	w.Resolve(4)
	w.Resolve(4) // duplicate resolve is a no-op
	if got := w.IssuedMax(); got != 4 {
		t.Fatalf("IssuedMax after resolve = %d, want 4", got)
	}
	if got := w.InFlight(); got != 1 {
		t.Fatalf("InFlight after resolve = %d, want 1", got)
	}
}

func TestWindowCloseFailsReserve(t *testing.T) {
	w := NewWindow(1)
	ctx := waitCtx(t)
	if err := w.Reserve(ctx); err != nil {
		t.Fatal(err)
	}
	w.Start(1, winEntry("t", nil))
	done := make(chan error, 1)
	go func() { done <- w.Reserve(ctx) }()
	w.Close()
	if err := <-done; !errors.Is(err, ErrClosed) {
		t.Fatalf("Reserve on closed window = %v, want ErrClosed", err)
	}
	if err := w.Reserve(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Reserve after close = %v, want ErrClosed", err)
	}
}

func TestWindowMinimumLimit(t *testing.T) {
	if got := NewWindow(0).Limit(); got != 1 {
		t.Fatalf("Limit(0) = %d, want 1", got)
	}
	if got := NewWindow(-3).Limit(); got != 1 {
		t.Fatalf("Limit(-3) = %d, want 1", got)
	}
}

// TestLogMultiTxnEntryApply: a combined (multi-transaction) entry from the
// master's pipelined submit path applies every member's writes in list
// order — later transactions in the entry overwrite earlier ones.
func TestLogMultiTxnEntryApply(t *testing.T) {
	l, store := openLog(t)
	entry := wal.NewEntry(
		wal.Txn{ID: "t1", Origin: "A", Writes: map[string]string{"x": "first", "y": "only"}},
		wal.Txn{ID: "t2", Origin: "B", Writes: map[string]string{"x": "second", "z": "tail"}},
	)
	if _, err := l.Append(1, wal.Encode(entry)); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 1); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"x": "second", "y": "only", "z": "tail"} {
		v, _, err := store.Read(DataKey("g", key), 1)
		if err != nil || v["v"] != want {
			t.Fatalf("data %q = (%v, %v), want %q", key, v, err, want)
		}
	}
	if got := l.DecidedMax(); got != 1 {
		t.Fatalf("DecidedMax = %d, want 1", got)
	}
}

// TestLogDecidedMaxTracksGappedAppends: the decided ceiling covers pending
// positions above a gap and survives reopen.
func TestLogDecidedMaxTracksGappedAppends(t *testing.T) {
	store := kvstore.New()
	l := Open(store, "g")
	if _, err := l.Append(1, testEntry("t1", 0, map[string]string{"a": "1"})); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(3, testEntry("t3", 2, map[string]string{"c": "3"})); err != nil {
		t.Fatal(err)
	}
	if err := l.WaitApplied(waitCtx(t), 1); err != nil {
		t.Fatal(err)
	}
	if got := l.DecidedMax(); got != 3 {
		t.Fatalf("DecidedMax with gap = %d, want 3", got)
	}
	// The reopened log reads rows: wait for entry 3's, which the apply
	// watermark at 1 does not cover.
	if err := l.WaitLogged(waitCtx(t), 3); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l2 := Open(store, "g")
	defer l2.Close()
	if got := l2.DecidedMax(); got != 3 {
		t.Fatalf("DecidedMax after reopen = %d, want 3", got)
	}
}
