package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/history"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

// kindCounter counts the requests a client sends, by kind, and the reads of
// no keys among them — the read-position requests — and keeps every submit's
// payload.
type kindCounter struct {
	network.Transport
	mu      sync.Mutex
	sent    map[network.Kind]int
	readPos int
	submits [][]byte
}

func (k *kindCounter) Send(ctx context.Context, to string, req network.Message) (network.Message, error) {
	k.note(req)
	return k.Transport.Send(ctx, to, req)
}

func (k *kindCounter) Go(to string, req network.Message, done func(network.Message, error)) network.Call {
	k.note(req)
	return k.Transport.Go(to, req, done)
}

// note counts req.
func (k *kindCounter) note(req network.Message) {
	k.mu.Lock()
	if k.sent == nil {
		k.sent = make(map[network.Kind]int)
	}
	k.sent[req.Kind]++
	if req.Kind == network.KindReadMulti && len(req.Keys) == 0 {
		k.readPos++
	}
	if req.Kind == network.KindSubmit {
		k.submits = append(k.submits, append([]byte(nil), req.Payload...))
	}
	k.mu.Unlock()
}

func (k *kindCounter) count(kind network.Kind) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.sent[kind]
}

// readPositions counts the read-position requests sent: reads of no keys.
func (k *kindCounter) readPositions() int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.readPos
}

// countingClient returns a client homed at dc whose sends are counted, with
// every commit it reports collected in the returned slice (read it only while
// no commit is running).
func countingClient(t *testing.T, sim *network.Sim, services map[string]*Service, id int, dc string, cfg Config) (*Client, *kindCounter, *[]CommittedTxn) {
	t.Helper()
	kc := &kindCounter{Transport: sim.EndpointAsync(dc, services[dc].AsyncHandler())}
	cfg.Seed, cfg.Timeout = int64(id), 200*time.Millisecond
	cl := NewClient(id, dc, kc, cfg)
	var mu sync.Mutex
	commits := new([]CommittedTxn)
	cl.OnCommit = func(pos int64, txn CommittedTxn) {
		mu.Lock()
		*commits = append(*commits, txn)
		mu.Unlock()
	}
	return cl, kc, commits
}

// ageShown makes the positions c has been shown look d older: an idle client,
// without the wait.
func (c *Client) ageShown(d time.Duration) {
	c.shownMu.Lock()
	defer c.shownMu.Unlock()
	for g, s := range c.shown {
		s.at = s.at.Add(-d)
		c.shown[g] = s
	}
}

// TestMasterBlindWritesReuseShownPosition: under Master only the first
// write-only commit of a busy client asks for a read position; every later
// one takes the position the previous verdict showed, which is below the
// position it commits at (history L3). A client that has sat idle for more
// than its timeout asks again.
func TestMasterBlindWritesReuseShownPosition(t *testing.T) {
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	cl, kc, commits := countingClient(t, sim, services, 1, "B", Config{Protocol: Master, MasterDC: "A"})

	const n = 8
	for i := 0; i < n; i++ {
		commitWrites(t, cl, "g", map[string]string{fmt.Sprintf("k%d", i): "v"})
	}
	if got := kc.readPositions(); got != 1 {
		t.Fatalf("%d blind-write commits sent %d read-position requests, want 1", n, got)
	}
	if got := kc.count(network.KindSubmit); got != n {
		t.Fatalf("%d commits sent %d submits", n, got)
	}
	for i, c := range *commits {
		if c.ReadPos >= c.Pos {
			t.Fatalf("commit %d: read position %d is not below its position %d", i, c.ReadPos, c.Pos)
		}
		if i > 0 && c.ReadPos != (*commits)[i-1].Pos {
			t.Fatalf("commit %d: read position %d, want the previous verdict's %d", i, c.ReadPos, (*commits)[i-1].Pos)
		}
	}

	cl.ageShown(201 * time.Millisecond)
	commitWrites(t, cl, "g", map[string]string{"idle": "v"})
	if got := kc.readPositions(); got != 2 {
		t.Fatalf("after idling past the timeout: %d read-position requests in all, want 2", got)
	}
}

// TestReadingTxnKeepsItsReadPosition: a transaction whose read or scan
// resolved its position commits with that position — not with a newer one
// the client has been shown since, which would hide a conflicting write in
// between from the master's check — and sends no read-position request.
func TestReadingTxnKeepsItsReadPosition(t *testing.T) {
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	cl, kc, commits := countingClient(t, sim, services, 1, "A", Config{Protocol: Master, MasterDC: "A"})
	ctx := context.Background()
	commitWrites(t, cl, "g", map[string]string{"s/a": "1"}) // the one read-position request

	for _, how := range []string{"read", "scan"} {
		tx, _ := cl.Begin(ctx, "g")
		switch how {
		case "read":
			if _, _, err := tx.Read(ctx, "s/a"); err != nil {
				t.Fatal(err)
			}
		case "scan":
			for sc := tx.Scan("s/"); sc.Next(ctx); {
			}
		}
		at := tx.ReadPos()
		if at < 1 {
			t.Fatalf("%s left the position unresolved: %d", how, at)
		}
		later := commitWrites(t, cl, "g", map[string]string{"other-" + how: "v"})
		tx.Write("mine-"+how, "v")
		if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
			t.Fatalf("%s-write commit: %+v %v", how, res, err)
		}
		last := (*commits)[len(*commits)-1]
		if last.ReadPos != at || last.ReadPos >= later {
			t.Fatalf("%s: committed with read position %d, want the %s's %d (a later commit showed %d)",
				how, last.ReadPos, how, at, later)
		}
	}
	if got := kc.readPositions(); got != 1 {
		t.Fatalf("%d read-position requests, want only the first blind write's", got)
	}
}

// TestBasicAndCPStillAskForTheirPosition: where the read position is the
// position competed for, every write-only commit asks, and the client keeps
// no record of positions shown.
func TestBasicAndCPStillAskForTheirPosition(t *testing.T) {
	for _, proto := range []Protocol{Basic, CP} {
		services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
		cl, kc, _ := countingClient(t, sim, services, 1, "A", Config{Protocol: proto})
		for i := 0; i < 3; i++ {
			commitWrites(t, cl, "g", map[string]string{fmt.Sprintf("k%d", i): "v"})
		}
		if got := kc.readPositions(); got != 3 {
			t.Errorf("%v: 3 blind-write commits sent %d read-position requests, want 3", proto, got)
		}
		if cl.shown != nil {
			t.Errorf("%v: the client recorded shown positions %v", proto, cl.shown)
		}
	}
}

// TestReusedFloorContendedHistory: two clients on a few hot keys, mixing
// write-only transactions (reused floors) with read-write ones, produce a
// history the checker accepts — in particular L3, every reported read
// position below its commit position.
func TestReusedFloorContendedHistory(t *testing.T) {
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	ctx := context.Background()
	rec := &history.Recorder{}
	var wg sync.WaitGroup
	var committed atomic.Int64
	for i, dc := range []string{"B", "C"} {
		cl, _, _ := countingClient(t, sim, services, i+1, dc, Config{Protocol: Master, MasterDC: "A"})
		cl.OnCommit = func(pos int64, c CommittedTxn) {
			rec.Record(history.Commit{ID: c.ID, Group: c.Group, Origin: c.Origin,
				ReadPos: c.ReadPos, Pos: pos, Reads: c.Reads, Writes: c.Writes})
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 40; n++ {
				tx, _ := cl.Begin(ctx, "g")
				if n%3 == 2 {
					if _, _, err := tx.Read(ctx, fmt.Sprintf("hot%d", n%4)); err != nil {
						t.Errorf("read: %v", err)
						return
					}
				}
				tx.Write(fmt.Sprintf("hot%d", (n+i)%4), fmt.Sprintf("c%d-%d", i, n))
				res, err := tx.Commit(ctx)
				if err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				if res.Status == stats.Committed {
					committed.Add(1)
				}
			}
		}(i)
	}
	wg.Wait()
	if committed.Load() < 40 {
		t.Fatalf("only %d of 80 transactions committed", committed.Load())
	}
	logs := make(map[string]map[int64]wal.Entry)
	for dc, svc := range services {
		if err := svc.Recover(ctx, "g"); err != nil {
			t.Fatalf("recover %s: %v", dc, err)
		}
		logs[dc] = svc.LogSnapshot("g")
	}
	for _, v := range history.Check(logs, rec.Commits()) {
		t.Errorf("history: %v", v)
	}
}

// TestResubmittedBlindWriteCommitsOnce is pipeline invariant W5 with a reused
// floor: the encoded payload of a committed write-only transaction, submitted
// to the master again (a client that lost the verdict), is answered with the
// first commit's position and not placed a second time.
func TestResubmittedBlindWriteCommitsOnce(t *testing.T) {
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	cl, kc, commits := countingClient(t, sim, services, 1, "B", Config{Protocol: Master, MasterDC: "A"})
	ctx := context.Background()
	commitWrites(t, cl, "g", map[string]string{"a": "1"})
	first := commitWrites(t, cl, "g", map[string]string{"b": "2"}) // floor reused
	commitWrites(t, cl, "g", map[string]string{"c": "3"})          // the log moves on
	if again := (*commits)[1]; again.ReadPos >= first || kc.readPositions() != 1 {
		t.Fatalf("the transaction to resubmit did not reuse a floor: %+v", again)
	}
	resp, err := kc.Transport.Send(ctx, "A", network.Message{Kind: network.KindSubmit, Group: "g", Payload: kc.submits[1]})
	if err != nil || !resp.OK || resp.TS != first {
		t.Fatalf("resubmission answered %+v %v, want the first commit's position %d", resp, err, first)
	}
	for id, at := range history.LiveTxns(map[string]map[int64]wal.Entry{"A": services["A"].LogSnapshot("g")}) {
		if len(at) != 1 {
			t.Errorf("transaction %s is in the log at positions %v, want exactly one", id, at)
		}
	}
}

// TestReusedFloorAheadOfNewMaster: the floor a client carries over can be
// ahead of what the master it submits to has applied. Here the master B was
// down while CP commits went on in its group; a read at A shows the client
// their position. B catches up to the floor before it places the
// transaction (place's maxRead > Applied branch); it neither fails the
// commit nor places it at or below the floor. Without the catch-up B would
// place at positions already decided, and the gap is wider than a
// submission's promotion budget.
func TestReusedFloorAheadOfNewMaster(t *testing.T) {
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	cl, kc, commits := countingClient(t, sim, services, 1, "A", Config{Protocol: Master, MasterDC: "B"})
	commitWrites(t, cl, "g", map[string]string{"first": "v"}) // B claims the group
	ctx := context.Background()

	sim.SetDown("B", true)
	cp := NewClient(2, "A", sim.EndpointAsync("A", services["A"].AsyncHandler()), Config{Protocol: CP, Seed: 2, Timeout: 200 * time.Millisecond})
	for i := 0; i < submitAttempts+2; i++ {
		commitWrites(t, cp, "g", map[string]string{fmt.Sprintf("k%d", i): "v"})
	}
	tx, _ := cl.Begin(ctx, "g")
	if _, _, err := tx.Read(ctx, "k0"); err != nil {
		t.Fatal(err)
	}
	floor := tx.ReadPos() // what A has applied, shown to the client
	sim.SetDown("B", false)
	if got := services["B"].LastApplied("g"); got >= floor {
		t.Fatalf("B applied %d while it was down; the test needs it behind the floor %d", got, floor)
	}

	pos := commitWrites(t, cl, "g", map[string]string{"after": "v"})
	last := (*commits)[len(*commits)-1]
	if last.ReadPos != floor || pos <= floor {
		t.Fatalf("committed at %d with read position %d, want above the reused floor %d", pos, last.ReadPos, floor)
	}
	if got := kc.readPositions(); got != 1 {
		t.Fatalf("%d read-position requests, want 1: the floor was to be reused", got)
	}
	if got := services["B"].LastApplied("g"); got < floor {
		t.Fatalf("B placed above a floor it has not applied: watermark %d, floor %d", got, floor)
	}
}

// TestShownPositionSharedByConcurrentTxs: one client's transactions commit
// from several goroutines at once and share the record of what they were
// shown; it only moves forward — a lagging replica's older answer neither
// lowers it nor counts as news.
func TestShownPositionSharedByConcurrentTxs(t *testing.T) {
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	cl, kc, commits := countingClient(t, sim, services, 1, "B", Config{Protocol: Master, MasterDC: "A"})
	commitWrites(t, cl, "g", map[string]string{"first": "v"})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 5; i++ {
				tx, _ := cl.Begin(ctx, "g")
				tx.Write(fmt.Sprintf("k%d-%d", g, i), "v")
				if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
					t.Errorf("commit: %+v %v", res, err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := kc.readPositions(); got != 1 {
		t.Fatalf("%d read-position requests, want the first commit's only", got)
	}
	var top int64
	for _, c := range *commits {
		if c.ReadPos >= c.Pos {
			t.Fatalf("read position %d is not below the commit position %d", c.ReadPos, c.Pos)
		}
		top = max(top, c.Pos)
	}
	cl.ageShown(201 * time.Millisecond)
	cl.noteShown("g", top-3) // older than what it holds: not news
	if pos, fresh := cl.recentShown("g"); pos != top || fresh {
		t.Fatalf("after an older position was shown: %d, fresh %t; want %d, still stale", pos, fresh, top)
	}
	cl.noteShown("g", top) // the same position again, now: fresh
	if pos, fresh := cl.recentShown("g"); pos != top || !fresh {
		t.Fatalf("after the newest position was shown again: %d, fresh %t; want %d, fresh", pos, fresh, top)
	}
}
