package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/stats"
)

// masterCfg returns a client config for the leader-based protocol with V1
// as the long-term master.
func masterCfg(seed int64) core.Config {
	return core.Config{Protocol: core.Master, MasterDC: "V1", Seed: seed}
}

func TestMasterSingleCommit(t *testing.T) {
	c := fastCluster(t, "VVV")
	ctx := context.Background()
	cl := c.NewClient("V2", masterCfg(1))
	rec := &history.Recorder{}
	attachRecorder(cl, rec)

	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("k", "v")
	res, err := tx.Commit(ctx)
	// Position 1 holds the master's auto-claim entry (epoch 1); the first
	// transaction commits at 2, stamped with the epoch.
	if err != nil || res.Status != stats.Committed || res.Pos != 2 || res.Epoch != 1 {
		t.Fatalf("master commit: %+v %v", res, err)
	}
	// Replicated everywhere. Apply fan-out returns at local + majority, so
	// bring stragglers up deterministically before asserting.
	for _, dc := range c.DCs() {
		if err := c.Service(dc).CatchUp(ctx, "g", 2); err != nil {
			t.Fatalf("catch up %s: %v", dc, err)
		}
		if _, ok := c.Service(dc).LogSnapshot("g")[2]; !ok {
			t.Fatalf("entry missing at %s", dc)
		}
		if st, _ := c.Service(dc).Mastership("g"); st.Epoch != 1 || st.Master != "V1" {
			t.Fatalf("%s observed mastership %+v, want epoch 1 at V1", dc, st)
		}
	}
	checkHistory(t, c, "g", rec)
}

// TestMasterNonConflictingAllCommit: unlike basic Paxos, the master's
// fine-grained conflict check commits every non-conflicting transaction —
// no position competition at all.
func TestMasterNonConflictingAllCommit(t *testing.T) {
	c := fastCluster(t, "VVV")
	ctx := context.Background()
	rec := &history.Recorder{}

	const n = 8
	results := make([]core.CommitResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		cl := c.NewClient(c.DCs()[i%3], masterCfg(int64(i+1)))
		attachRecorder(cl, rec)
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(fmt.Sprintf("key-%d", i), "v")
		wg.Add(1)
		go func(i int, tx *core.Tx) {
			defer wg.Done()
			res, err := tx.Commit(ctx)
			if err != nil {
				t.Errorf("commit %d: %v", i, err)
			}
			results[i] = res
		}(i, tx)
	}
	wg.Wait()
	for i, r := range results {
		if r.Status != stats.Committed {
			t.Fatalf("transaction %d not committed under master: %+v", i, r)
		}
	}
	checkHistory(t, c, "g", rec)
}

// TestMasterConflictAborts: the fine-grained check still aborts true conflicts.
func TestMasterConflictAborts(t *testing.T) {
	c := fastCluster(t, "VVV")
	ctx := context.Background()
	rec := &history.Recorder{}

	seed := c.NewClient("V1", masterCfg(9))
	attachRecorder(seed, rec)
	tx, _ := seed.Begin(ctx, "g")
	tx.Write("x", "0")
	if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
		t.Fatalf("seed: %+v %v", res, err)
	}

	// Two read-modify-writes of the same key at the same read position.
	cl1 := c.NewClient("V2", masterCfg(10))
	cl2 := c.NewClient("V3", masterCfg(11))
	attachRecorder(cl1, rec)
	attachRecorder(cl2, rec)
	tx1, _ := cl1.Begin(ctx, "g")
	tx2, _ := cl2.Begin(ctx, "g")
	tx1.Read(ctx, "x")
	tx2.Read(ctx, "x")
	tx1.Write("x", "one")
	tx2.Write("x", "two")

	var res1, res2 core.CommitResult
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); res1, _ = tx1.Commit(ctx) }()
	go func() { defer wg.Done(); res2, _ = tx2.Commit(ctx) }()
	wg.Wait()

	commits := 0
	if res1.Status == stats.Committed {
		commits++
	}
	if res2.Status == stats.Committed {
		commits++
	}
	if commits != 1 {
		t.Fatalf("conflicting transactions: %d commits, want 1 (%+v, %+v)", commits, res1, res2)
	}
	checkHistory(t, c, "g", rec)
}

func TestMasterUnreachableFails(t *testing.T) {
	c := fastCluster(t, "VVV")
	ctx := context.Background()
	cl := c.NewClient("V2", core.Config{
		Protocol: core.Master, MasterDC: "V1", Seed: 1, Timeout: 40 * time.Millisecond,
	})
	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("k", "v")
	c.SetDown("V1", true)
	res, err := tx.Commit(ctx)
	if res.Status == stats.Committed {
		t.Fatalf("committed with master down: %+v", res)
	}
	if err == nil {
		t.Fatal("expected error with master down")
	}
}

// TestMasterFailover: after the master dies, a new master (another DC)
// claims the next epoch — waiting out the dead master's lease — and takes
// over sequencing.
func TestMasterFailover(t *testing.T) {
	c := fastCluster(t, "VVV")
	ctx := context.Background()
	rec := &history.Recorder{}

	cl := c.NewClient("V2", masterCfg(1))
	attachRecorder(cl, rec)
	for i := 0; i < 3; i++ {
		tx, _ := cl.Begin(ctx, "g")
		tx.Write(fmt.Sprintf("k%d", i), "v")
		if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed || res.Epoch != 1 {
			t.Fatalf("pre-failover commit %d: %+v %v", i, res, err)
		}
	}

	// V1 dies. Promote V2: ClaimMastership waits out V1's lease, catches
	// up, and commits the epoch-2 claim through the log.
	c.SetDown("V1", true)
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	epoch, err := c.Service("V2").ClaimMastership(cctx, "g")
	if err != nil {
		t.Fatalf("promote V2: %v", err)
	}
	if epoch != 2 {
		t.Fatalf("takeover epoch = %d, want 2", epoch)
	}
	cl2 := c.NewClient("V3", core.Config{Protocol: core.Master, MasterDC: "V2", Seed: 2})
	attachRecorder(cl2, rec)
	tx, err := cl2.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("post-failover", "v")
	res, err := tx.Commit(ctx)
	// Log layout: claim(1), k0..k2 (2..4), takeover claim (5), this txn (6).
	if err != nil || res.Status != stats.Committed || res.Pos != 6 || res.Epoch != 2 {
		t.Fatalf("post-failover commit: %+v %v", res, err)
	}
	checkHistory(t, c, "g", rec)
}

// TestMasterStressSerializable: the Theorem-level check for the leader
// protocol.
func TestMasterStressSerializable(t *testing.T) {
	c := fastCluster(t, "VVV")
	ctx := context.Background()
	rec := &history.Recorder{}

	const clients = 6
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		cl := c.NewClient(c.DCs()[i%3], masterCfg(int64(i+1)))
		attachRecorder(cl, rec)
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			for n := 0; n < 8; n++ {
				tx, err := cl.Begin(ctx, "g")
				if err != nil {
					continue
				}
				rk := fmt.Sprintf("k%d", (i+n)%4)
				wk := fmt.Sprintf("k%d", (i+2*n+1)%4)
				if _, _, err := tx.Read(ctx, rk); err != nil {
					tx.Abort()
					continue
				}
				tx.Write(wk, fmt.Sprintf("c%d-n%d", i, n))
				tx.Commit(ctx)
			}
		}(i, cl)
	}
	wg.Wait()
	for _, dc := range c.DCs() {
		if err := c.Service(dc).Recover(ctx, "g"); err != nil {
			t.Fatalf("recover %s: %v", dc, err)
		}
	}
	checkHistory(t, c, "g", rec)
}
