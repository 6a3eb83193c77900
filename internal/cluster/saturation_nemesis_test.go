package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

// TestSaturationNemesis is the overload headline test (DESIGN.md §13): a
// single group whose master pipeline is tightly bounded (window 2x2) and
// whose submit queue admits at most 4 waiters is driven by 24 unpaced
// clients — several times its capacity — while a fault injector partitions
// links and heals them. The admission-control contract under that storm:
//
//   - overload surfaces: clients see the retryable rejected verdict
//     (network.VerdictOverloaded behind stats.Rejected) instead of queueing without
//     bound behind the replication window;
//   - commit latency stays bounded: p99 over committed transactions is a
//     function of the (queue + window) depth and the protocol's timeouts,
//     not of the offered load;
//   - every submit gets exactly one verdict — no transaction is silently
//     dropped by admission or by the async submit path;
//   - no lost or duplicated commits: after healing and recovery, the
//     quiesce-aware checker (history.CheckQuiesced at the maximum applied
//     watermark) passes the full §3 battery against the merged logs.
func TestSaturationNemesis(t *testing.T) {
	if testing.Short() {
		t.Skip("saturation storm skipped in short mode")
	}
	const timeout = 80 * time.Millisecond
	c := New(Config{
		Topology:      MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: 31, Scale: 0.002, Jitter: 0.2},
		Timeout:       timeout,
		SubmitWindow:  2,
		SubmitCombine: 2,
		SubmitQueue:   4,
	})
	defer c.Close()
	ctx := context.Background()
	group := c.Groups()[0]
	dcs := c.DCs()
	rec := &history.Recorder{}

	// The storm: brief single-link partitions (majority always survives)
	// interleaved with calm spells.
	stop := make(chan struct{})
	var nemesisWG sync.WaitGroup
	nemesisWG.Add(1)
	go func() {
		defer nemesisWG.Done()
		rng := rand.New(rand.NewSource(19))
		for {
			select {
			case <-stop:
				return
			default:
			}
			a := dcs[rng.Intn(len(dcs))]
			b := dcs[(indexOf(dcs, a)+1+rng.Intn(len(dcs)-1))%len(dcs)]
			switch rng.Intn(3) {
			case 0:
				c.Partition(a, b)
				time.Sleep(time.Duration(10+rng.Intn(30)) * time.Millisecond)
				c.Heal(a, b)
			default:
				time.Sleep(time.Duration(10+rng.Intn(30)) * time.Millisecond)
			}
		}
	}()

	// The workload: 24 unpaced clients, each writing its own keys (no data
	// contention — overload, not conflicts, is under test). A rejected
	// submit retries after a short backoff; every other verdict is final.
	const workers = 24
	const txnsPerWorker = 25
	var (
		wg          sync.WaitGroup
		mu          sync.Mutex
		commits     int
		rejects     int
		verdicts    int
		commitLatNS []int64
	)
	for i := 0; i < workers; i++ {
		cl := c.NewClient(dcs[i%len(dcs)], core.Config{
			Protocol: core.Master, MasterFor: c.MasterOf,
			Seed: int64(i + 1), Timeout: timeout,
		})
		cl.OnCommit = func(pos int64, txn core.CommittedTxn) {
			rec.Record(history.Commit{
				ID: txn.ID, Group: txn.Group, Origin: txn.Origin,
				ReadPos: txn.ReadPos, Pos: pos,
				Reads: txn.Reads, Writes: txn.Writes,
			})
		}
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			for n := 0; n < txnsPerWorker; n++ {
				for attempt := 0; attempt < 50; attempt++ {
					tx, err := cl.Begin(ctx, group)
					if err != nil {
						break
					}
					tx.Write(fmt.Sprintf("w%d-%d", i, n), fmt.Sprint(attempt))
					start := time.Now()
					res, err := tx.Commit(ctx)
					lat := time.Since(start)
					mu.Lock()
					verdicts++
					switch {
					case err == nil && res.Status == stats.Committed:
						commits++
						commitLatNS = append(commitLatNS, int64(lat))
					case err == nil && res.Status == stats.Rejected:
						rejects++
					}
					mu.Unlock()
					if err == nil && res.Status == stats.Rejected {
						time.Sleep(2 * time.Millisecond)
						continue // overloaded: back off and re-submit
					}
					break // committed, aborted, or failed: the verdict is final
				}
			}
		}(i, cl)
	}
	wg.Wait()
	close(stop)
	nemesisWG.Wait()

	// Heal everything and converge every replica.
	for i, a := range dcs {
		for _, b := range dcs[i+1:] {
			c.Heal(a, b)
		}
	}
	horizon := int64(0)
	logs := map[string]map[int64]wal.Entry{}
	for _, dc := range dcs {
		if err := c.Service(dc).Recover(ctx, group); err != nil {
			t.Fatalf("recover %s: %v", dc, err)
		}
		if a := c.Service(dc).LastApplied(group); a > horizon {
			horizon = a
		}
		logs[dc] = c.Service(dc).LogSnapshot(group)
	}

	if commits == 0 {
		t.Fatal("nothing committed through the storm")
	}
	if rejects == 0 {
		t.Fatal("offered load at several times capacity never saw the overloaded verdict")
	}
	// One verdict per submit attempt, exactly: the commit counter and the
	// recorder must agree (a lost verdict would hang a worker; a duplicated
	// OnCommit would skew the recorder).
	if got := len(rec.Commits()); got != commits {
		t.Fatalf("recorder saw %d commits, clients saw %d", got, commits)
	}
	// Bounded p99: admission keeps the wait behind the pipeline to
	// (queue + window) positions, so even mid-storm the tail is a small
	// multiple of the protocol timeout — not a function of the 24-thread
	// offered load.
	sort.Slice(commitLatNS, func(i, j int) bool { return commitLatNS[i] < commitLatNS[j] })
	p99 := time.Duration(commitLatNS[(len(commitLatNS)*99)/100])
	const p99Bound = 1500 * time.Millisecond
	t.Logf("saturation nemesis: %d commits, %d rejects, %d verdicts, p99 %v (bound %v)",
		commits, rejects, verdicts, p99, p99Bound)
	if p99 > p99Bound {
		t.Errorf("commit p99 %v exceeds %v under admission control", p99, p99Bound)
	}

	// No lost or duplicated commits: the quiesce-aware checker tolerates
	// trailing decided-but-unlearned positions above the applied horizon and
	// still enforces R1/L1/L2/L3/A2 below it.
	for _, v := range history.CheckQuiesced(logs, horizon, rec.Commits()) {
		t.Errorf("history violation: %s", v)
	}
}
