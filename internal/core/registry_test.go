package core

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// TestGroupFirstUsedAfterCloseOpensClosed: a group whose record is made
// after the service closed — by EnsureGroups or by a submit — opens closed,
// so nothing waits on a log no pool will drain: a wait on its watermark
// fails with replog.ErrClosed and a submit is refused with VerdictShutdown.
func TestGroupFirstUsedAfterCloseOpensClosed(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	s.Close()

	s.EnsureGroups("late")
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.log("late").WaitApplied(ctx, 1); !errors.Is(err, replog.ErrClosed) {
		t.Fatalf("wait on a group ensured after Close = %v, want ErrClosed", err)
	}

	replies := make(chan network.Message, 1)
	s.AsyncHandler()("B", network.Message{
		Kind: network.KindSubmit, Group: "later",
		Payload: wal.Encode(wal.NewEntry(wal.Txn{ID: "t1", Origin: "B", Writes: map[string]string{"k": "v"}})),
	}, func(m network.Message) { replies <- m })
	select {
	case m := <-replies:
		if m.OK || m.Verdict != network.VerdictShutdown {
			t.Fatalf("submit to a group first used after Close = %+v, want %q", m, network.VerdictShutdown)
		}
	case <-ctx.Done():
		t.Fatal("submit to a group first used after Close was never answered")
	}
	if err := s.log("later").WaitApplied(ctx, 1); !errors.Is(err, replog.ErrClosed) {
		t.Fatalf("wait on a group first submitted to after Close = %v, want ErrClosed", err)
	}
}

// TestGroupConcurrentFirstUseOneRecord: the first uses of one group racing
// through every path that makes its record — a log lookup, a submit
// pipeline, a mastership claim and an apply above a gap — share one record:
// one log, one pipeline on that log, and the gap watch armed on it.
func TestGroupConcurrentFirstUseOneRecord(t *testing.T) {
	// A long timeout keeps the armed gap watch asleep until Close.
	services, _ := newServiceRing(t, 1, []string{"A", "B", "C"}, WithServiceTimeout(time.Minute))
	s := services["A"]
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()

	var (
		wg     sync.WaitGroup
		lg     *replog.Log
		pipe   *pipeline
		claim  error
		gapped error
	)
	start := make(chan struct{})
	for _, use := range []func(){
		func() { lg = s.log("g") },
		func() { pipe = s.pipeline("g") },
		func() { _, claim = s.ClaimMastership(cancelled, "g") },
		func() { gapped = s.ApplyDecided("g", 3, entryBytes("t3", 2, map[string]string{"k": "3"})) },
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			use()
		}()
	}
	close(start)
	wg.Wait()

	if !errors.Is(claim, context.Canceled) {
		t.Fatalf("claim under a cancelled context = %v, want Canceled", claim)
	}
	if gapped != nil {
		t.Fatalf("apply above the gap: %v", gapped)
	}
	if groups := s.Groups(); len(groups) != 1 || groups[0] != "g" {
		t.Fatalf("groups after concurrent first use = %v, want [g]", groups)
	}
	s.mu.Lock()
	g := s.groups["g"]
	watching := g.gapWatch
	s.mu.Unlock()
	if g.log != lg || g.pipe != pipe || pipe.lg != lg {
		t.Fatalf("first uses made more than one record: log %p, record's log %p, pipeline's log %p; pipeline %p, record's %p",
			lg, g.log, pipe.lg, pipe, g.pipe)
	}
	if !watching {
		t.Fatal("the apply above the gap armed no gap watch on the group's record")
	}
	if got := lg.DecidedMax(); got != 3 {
		t.Fatalf("decided max = %d, want 3: the gapped apply landed in another log", got)
	}
}
