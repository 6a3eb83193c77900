package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

// pipelineCluster builds a fast 3-DC cluster with an explicit master submit
// window and combination cap.
func pipelineCluster(t *testing.T, window, combine int) *Cluster {
	t.Helper()
	c := New(Config{
		Topology:      MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: 11, Scale: 0.002, Jitter: 0.1},
		Timeout:       150 * time.Millisecond,
		SubmitWindow:  window,
		SubmitCombine: combine,
	})
	t.Cleanup(c.Close)
	return c
}

// TestMasterPipelineCombination: with the window at 1, transactions that
// arrive while an earlier entry replicates queue up and are combined into a
// single multi-transaction log entry — the paper's combination phase run at
// the master instead of in the client value-selection rule.
func TestMasterPipelineCombination(t *testing.T) {
	c := pipelineCluster(t, 1, 4)
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
	combined := 0
	for i, r := range results {
		if r.Status != stats.Committed {
			t.Fatalf("transaction %d not committed: %+v", i, r)
		}
		if r.Combined {
			combined++
		}
	}
	// The log must be shorter than the transaction count: at least one
	// entry carries more than one transaction.
	if err := c.Service("V1").CatchUp(ctx, "g", 1); err != nil {
		t.Fatal(err)
	}
	snap := c.Service("V1").LogSnapshot("g")
	multi := 0
	placed := 0
	for _, e := range snap {
		placed += len(e.Txns)
		if len(e.Txns) > 1 {
			multi++
		}
	}
	if placed != n {
		t.Fatalf("log holds %d transactions, want %d", placed, n)
	}
	if multi == 0 {
		t.Fatalf("no multi-transaction entry committed across %d positions", len(snap))
	}
	if combined == 0 {
		t.Fatal("no client saw Combined=true in its commit result")
	}
	checkHistory(t, c, "g", rec)
}

// TestMasterPipelineConflictAborts: the speculative window check keeps
// the fine-grained conflict rule — two read-modify-writes of the same key at
// the same read position commit exactly once, even when batched together.
func TestMasterPipelineConflictAborts(t *testing.T) {
	c := pipelineCluster(t, 4, 4)
	ctx := context.Background()
	rec := &history.Recorder{}

	seed := c.NewClient("V1", masterCfg(9))
	attachRecorder(seed, rec)
	tx, _ := seed.Begin(ctx, "g")
	tx.Write("x", "0")
	if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
		t.Fatalf("seed: %+v %v", res, err)
	}

	// Stage every read-modify-write at the same read position, then race
	// the commits: at most one may win.
	const n = 4
	txs := make([]*core.Tx, n)
	for i := 0; i < n; i++ {
		cl := c.NewClient(c.DCs()[i%3], masterCfg(int64(i+10)))
		attachRecorder(cl, rec)
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := tx.Read(ctx, "x"); err != nil {
			t.Fatal(err)
		}
		tx.Write("x", fmt.Sprintf("from-%d", i))
		txs[i] = tx
	}
	results := make([]core.CommitResult, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = txs[i].Commit(ctx)
		}(i)
	}
	wg.Wait()
	commits := 0
	for _, r := range results {
		if r.Status == stats.Committed {
			commits++
		}
	}
	if commits != 1 {
		t.Fatalf("conflicting read-modify-writes: %d commits, want 1 (%+v)", commits, results)
	}
	checkHistory(t, c, "g", rec)
}

// TestMasterPipelineWindowFullNoDeadlock: the submit path holds no lock
// across replication, so a saturated pipeline (window full, queue deep,
// replication wedged by a partition) cannot block the apply path or the
// read-position handler — the deadlock the pre-pipeline master's sequencer
// lock comment guarded against is structurally gone.
func TestMasterPipelineWindowFullNoDeadlock(t *testing.T) {
	c := pipelineCluster(t, 2, 2)
	ctx := context.Background()

	// Wedge the master's replication: V1 cannot reach either peer.
	c.Partition("V1", "V2")
	c.Partition("V1", "V3")
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		cl := c.NewClient("V1", core.Config{
			Protocol: core.Master, MasterDC: "V1", Seed: int64(i + 1),
			Timeout: 60 * time.Millisecond,
		})
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		tx.Write(fmt.Sprintf("k%d", i), "v")
		wg.Add(1)
		go func(tx *core.Tx) {
			defer wg.Done()
			tx.Commit(ctx) // fails or times out; must not wedge the service
		}(tx)
	}

	// While the pipeline is saturated, the apply and read paths must answer
	// promptly: a gapped decided entry lands, and the read position still serves.
	applied := make(chan error, 1)
	go func() {
		entry := wal.Encode(wal.NewEntry(wal.Txn{
			ID: "side", Origin: "V2", ReadPos: 49,
			Writes: map[string]string{"side": "v"},
		}))
		applied <- c.Service("V1").ApplyDecided("g", 50, entry)
	}()
	select {
	case err := <-applied:
		if err != nil {
			t.Fatalf("apply during saturated pipeline: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("apply path blocked behind the saturated submit pipeline")
	}
	if got := c.Service("V1").LastApplied("g"); got != 0 {
		t.Fatalf("gapped apply advanced watermark to %d", got)
	}
	wg.Wait()
	c.Heal("V1", "V2")
	c.Heal("V1", "V3")
}

// TestMasterPipelineNemesis submits from many clients while partitions come
// and go and the master fails over with its pipeline window full. Committed
// transactions must be neither lost nor duplicated nor reordered: every
// commit a client observed appears exactly once in the converged log, at the
// position the client was told, and the whole history is one-copy
// serializable.
func TestMasterPipelineNemesis(t *testing.T) {
	c := New(Config{
		Topology:      MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: 23, Scale: 0.002, Jitter: 0.2},
		Timeout:       80 * time.Millisecond,
		SubmitWindow:  4,
		SubmitCombine: 3,
	})
	defer c.Close()
	ctx := context.Background()
	rec := &history.Recorder{}

	// Phase 1: load the pipeline at master V1 while a nemesis flaps the
	// V1–V3 link (V1+V2 keep quorum, so the window stays busy).
	stop := make(chan struct{})
	var nemesisWG sync.WaitGroup
	nemesisWG.Add(1)
	go func() {
		defer nemesisWG.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Partition("V1", "V3")
			time.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
			c.Heal("V1", "V3")
			time.Sleep(time.Duration(5+rng.Intn(20)) * time.Millisecond)
		}
	}()

	const workers = 6
	const txnsPerWorker = 8
	run := func(masterDC string, seedBase int) int {
		var wg sync.WaitGroup
		var mu sync.Mutex
		committed := 0
		for i := 0; i < workers; i++ {
			cl := c.NewClient(c.DCs()[i%3], core.Config{
				Protocol: core.Master, MasterDC: masterDC, Seed: int64(seedBase + i),
			})
			attachRecorder(cl, rec)
			wg.Add(1)
			go func(i int, cl *core.Client) {
				defer wg.Done()
				for n := 0; n < txnsPerWorker; n++ {
					tx, err := cl.Begin(ctx, "g")
					if err != nil {
						continue
					}
					rk := fmt.Sprintf("k%d", (i+n)%5)
					if _, _, err := tx.Read(ctx, rk); err != nil {
						tx.Abort()
						continue
					}
					tx.Write(fmt.Sprintf("k%d", (i*2+n+1)%5), fmt.Sprintf("%s-%d-%d", masterDC, i, n))
					res, err := tx.Commit(ctx)
					if err == nil && res.Status == stats.Committed {
						mu.Lock()
						committed++
						mu.Unlock()
					}
				}
			}(i, cl)
		}
		wg.Wait()
		return committed
	}
	phase1 := run("V1", 1)
	close(stop)
	nemesisWG.Wait()
	c.Heal("V1", "V3")

	// Phase 2: kill the master mid-pipeline (a last burst keeps the window
	// full when the outage hits), fail over to V2, keep committing.
	var burst sync.WaitGroup
	for i := 0; i < 4; i++ {
		cl := c.NewClient("V2", core.Config{
			Protocol: core.Master, MasterDC: "V1", Seed: int64(100 + i),
			Timeout: 50 * time.Millisecond,
		})
		attachRecorder(cl, rec)
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			continue
		}
		tx.Write(fmt.Sprintf("burst-%d", i), "v")
		burst.Add(1)
		go func(tx *core.Tx) {
			defer burst.Done()
			tx.Commit(ctx) // races the outage; any verdict is acceptable
		}(tx)
	}
	c.SetDown("V1", true)
	burst.Wait()
	if err := c.Service("V2").Recover(ctx, "g"); err != nil {
		t.Fatalf("promote V2: %v", err)
	}
	// Epoch-fenced promotion: V2 waits out V1's lease and claims the next
	// epoch before its pipeline accepts the phase-2 load.
	cctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if _, err := c.Service("V2").ClaimMastership(cctx, "g"); err != nil {
		cancel()
		t.Fatalf("claim V2: %v", err)
	}
	cancel()
	phase2 := run("V2", 200)

	// Phase 3: heal the old master; it rejoins as a replica.
	c.SetDown("V1", false)
	if err := c.Service("V1").Recover(ctx, "g"); err != nil {
		t.Fatalf("recover V1: %v", err)
	}
	phase3 := run("V2", 300)

	if phase1 == 0 || phase2 == 0 || phase3 == 0 {
		t.Fatalf("phases committed %d/%d/%d; every phase must make progress", phase1, phase2, phase3)
	}

	// Quiesce every replica, then check: no commit lost (present in the
	// log), none duplicated (exactly once), none reordered (logged at the
	// position the client observed), and the history is serializable.
	for _, dc := range c.DCs() {
		if err := c.Service(dc).Recover(ctx, "g"); err != nil {
			t.Fatalf("final recover %s: %v", dc, err)
		}
	}
	merged := c.Service("V2").LogSnapshot("g")
	placedAt := make(map[string][]int64)
	for pos, e := range merged {
		for _, txn := range e.Txns {
			placedAt[txn.ID] = append(placedAt[txn.ID], pos)
		}
	}
	commits := rec.Commits()
	for _, cm := range commits {
		got := placedAt[cm.ID]
		if len(got) == 0 {
			t.Errorf("committed transaction %s lost: not in any log entry", cm.ID)
			continue
		}
		if len(got) > 1 {
			t.Errorf("transaction %s duplicated at positions %v", cm.ID, got)
			continue
		}
		if got[0] != cm.Pos {
			t.Errorf("transaction %s reordered: client saw position %d, log has %d", cm.ID, cm.Pos, got[0])
		}
	}
	t.Logf("nemesis: %d commits over 3 phases (%d/%d/%d), %d log entries",
		len(commits), phase1, phase2, phase3, len(merged))
	checkHistory(t, c, "g", rec)
}
