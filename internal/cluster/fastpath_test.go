package cluster

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

// TestFastPathCommitsWithOneDatacenterDown: a granted fast round decides at a
// majority, so with one datacenter down a CP client in the leader's
// datacenter still commits in one claim and one accept round, sends no
// prepare and waits out no timeout. (Under the unanimous rule every such
// commit first sat through a doomed fast round's message timeout.)
func TestFastPathCommitsWithOneDatacenterDown(t *testing.T) {
	for _, down := range []string{"V", "C"} {
		t.Run(down+" down", func(t *testing.T) {
			const timeout = 2 * time.Second
			c := New(Config{
				Topology:  MustPaperTopology("VOC"),
				NetConfig: network.SimConfig{Seed: 5, Scale: 0.01},
				Timeout:   timeout,
			})
			defer c.Close()
			ctx := context.Background()
			cl := c.NewClient("O", core.Config{Protocol: core.CP, Seed: 1})
			commit := func(val string) core.CommitResult {
				t.Helper()
				tx, err := cl.Begin(ctx, "g")
				if err != nil {
					t.Fatal(err)
				}
				tx.Write("k", val)
				res, err := tx.Commit(ctx)
				if err != nil || res.Status != stats.Committed {
					t.Fatalf("commit %s: %+v %v", val, res, err)
				}
				return res
			}
			commit("first") // O won the position: it leads the next one
			c.SetDown(down, true)
			c.Sim().ResetCounters()
			start := time.Now()
			res := commit("second")
			took := time.Since(start)
			if res.Round != 0 {
				t.Errorf("commit was promoted %d times, want none", res.Round)
			}
			if took > timeout/4 {
				t.Errorf("commit took %v with %s down and a %v message timeout: it waited for the dead datacenter", took, down, timeout)
			}
			sent := c.Sim().Counters().Sent
			if sent[network.KindClaimLeader] != 1 || sent[network.KindAccept] != 3 || sent[network.KindPrepare] != 0 {
				t.Errorf("sent %d claims, %d accepts, %d prepares, want 1, 3, 0 (all: %v)",
					sent[network.KindClaimLeader], sent[network.KindAccept], sent[network.KindPrepare], sent)
			}
		})
	}
}

// TestMixedProtocolNemesis runs CP clients with the fast path on and a Master
// client on the same groups, through partitions and outages: each group's
// first mastership is claimed in the middle of the CP traffic — grants handed
// out before it are still being used — and a second datacenter then forces a
// failover. A CP grantee decides its ballot 0 at a majority while masters use
// ballot 0 too; R-a and R-b (DESIGN.md §11) are what keeps the two from
// meeting on a position. Afterwards no position holds two values at two
// replicas (R1) and the epoch-aware history check is clean, group by group.
func TestMixedProtocolNemesis(t *testing.T) {
	groups := []string{"g0", "g1", "g2", "g3"} // four first claims a run
	c := New(Config{
		Topology:      MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: 43, Scale: 0.002, Jitter: 0.2, LossRate: 0.005},
		Timeout:       60 * time.Millisecond,
		SubmitWindow:  4,
		SubmitCombine: 2,
		LeaseDuration: 200 * time.Millisecond,
	})
	defer c.Close()
	ctx := context.Background()
	dcs := c.DCs()
	recs := make(map[string]*history.Recorder)
	for _, g := range groups {
		recs[g] = &history.Recorder{}
	}
	record := func(cl *core.Client) {
		cl.OnCommit = func(pos int64, txn core.CommittedTxn) {
			recs[txn.Group].Record(history.Commit{
				ID: txn.ID, Origin: txn.Origin, ReadPos: txn.ReadPos,
				Pos: pos, Reads: txn.Reads, Writes: txn.Writes,
			})
		}
	}

	stop := make(chan struct{})
	var background sync.WaitGroup
	background.Add(1)
	go func() {
		defer background.Done()
		outageStorm(c, 17, stop)
	}()

	// rmw runs one transaction that reads one shared key and writes another;
	// any verdict will do.
	rmw := func(cl *core.Client, group string, i, n int) bool {
		tx, err := cl.Begin(ctx, group)
		if err != nil {
			return false
		}
		if _, _, err := tx.Read(ctx, fmt.Sprintf("k%d", (i+n)%6)); err != nil {
			tx.Abort()
			return false
		}
		tx.Write(fmt.Sprintf("k%d", (i*3+n)%6), fmt.Sprintf("w%d-%d", i, n))
		res, err := tx.Commit(ctx)
		return err == nil && res.Status == stats.Committed
	}
	var cpCommitted atomic.Int64
	for i, dc := range dcs {
		cl := c.NewClient(dc, core.Config{Protocol: core.CP, Seed: int64(i + 1), MaxRetries: 10})
		record(cl)
		background.Add(1)
		go func(i int, cl *core.Client) {
			defer background.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				if rmw(cl, groups[n%len(groups)], i, n) {
					cpCommitted.Add(1)
				}
			}
		}(i, cl)
	}

	// Let the CP clients run on their fast path, then bring the masters in:
	// the first submit to V1 makes it claim the group's first epoch.
	time.Sleep(100 * time.Millisecond)
	fastBefore := cpCommitted.Load()
	masterCommitted := 0
	masterRun := func(group, masterDC string, seed int64) {
		cl := c.NewClient("V3", core.Config{Protocol: core.Master, MasterDC: masterDC, Seed: seed})
		record(cl)
		for n := 0; n < 8; n++ {
			if rmw(cl, group, 7, n) {
				masterCommitted++
			}
		}
	}
	for i, g := range groups {
		masterRun(g, "V1", int64(100+i))
	}
	for i, g := range groups {
		cctx, cancel := context.WithTimeout(ctx, 20*time.Second)
		epoch, err := c.Service("V2").ClaimMastership(cctx, g)
		cancel()
		if err != nil || epoch < 2 {
			t.Fatalf("forced failover of %s to V2: epoch %d, %v", g, epoch, err)
		}
		masterRun(g, "V2", int64(200+i))
	}
	close(stop)
	background.Wait()

	healEverything(c)
	if fastBefore == 0 || masterCommitted == 0 {
		t.Fatalf("%d CP commits before the masters, %d through them: each must carry traffic", fastBefore, masterCommitted)
	}
	var positions int64
	for _, g := range groups {
		logs := make(map[string]map[int64]wal.Entry)
		var horizon int64
		for _, dc := range dcs {
			if err := c.Service(dc).Recover(ctx, g); err != nil {
				t.Fatalf("recover %s at %s: %v", g, dc, err)
			}
			logs[dc] = c.Service(dc).LogSnapshot(g)
			if applied := c.Service(dc).LastApplied(g); applied > horizon {
				horizon = applied
			}
		}
		for _, v := range history.CheckQuiesced(logs, horizon, recs[g].Commits()) {
			t.Errorf("%s: history violation: %s", g, v)
		}
		positions += horizon
	}
	t.Logf("%d CP commits (%d before the first claim), %d master commits, %d positions in %d groups",
		cpCommitted.Load(), fastBefore, masterCommitted, positions, len(groups))
}
