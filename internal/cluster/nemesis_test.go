package cluster

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
)

// TestNemesisSoak runs a workload while a fault injector randomly takes
// single datacenters down, partitions links, and heals them — never
// breaking the majority invariant on purpose, but racing every protocol
// path. After the storm, everything heals, every replica recovers, and the
// execution must be one-copy serializable.
func TestNemesisSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in short mode")
	}
	for _, proto := range []core.Protocol{core.Basic, core.CP} {
		proto := proto
		t.Run(proto.String(), func(t *testing.T) {
			t.Parallel()
			c := New(Config{
				Topology:  MustPaperTopology("VVV"),
				NetConfig: network.SimConfig{Seed: 99, Scale: 0.002, Jitter: 0.2, LossRate: 0.01},
				Timeout:   60 * time.Millisecond,
			})
			defer c.Close()
			ctx := context.Background()
			rec := &history.Recorder{}
			dcs := c.DCs()

			stop := make(chan struct{})
			var nemesisWG sync.WaitGroup
			nemesisWG.Add(1)
			go func() {
				defer nemesisWG.Done()
				outageStorm(c, 7, stop)
			}()

			const workers = 5
			const txnsPerWorker = 12
			var wg sync.WaitGroup
			var committed int
			var mu sync.Mutex
			for i := 0; i < workers; i++ {
				cl := c.NewClient(dcs[i%len(dcs)], core.Config{
					Protocol: proto, Seed: int64(i + 1), MaxRetries: 10,
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
						if _, _, err := tx.Read(ctx, fmt.Sprintf("k%d", (i+n)%6)); err != nil {
							tx.Abort()
							continue
						}
						tx.Write(fmt.Sprintf("k%d", (i*3+n)%6), fmt.Sprintf("w%d-%d", i, n))
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
			close(stop)
			nemesisWG.Wait()

			// Heal everything and recover every replica.
			healEverything(c)
			for _, dc := range dcs {
				if err := c.Service(dc).Recover(ctx, "g"); err != nil {
					t.Fatalf("recover %s: %v", dc, err)
				}
			}
			if committed == 0 {
				t.Fatal("nothing committed through the storm")
			}
			t.Logf("%s: %d/%d committed through faults", proto, committed, workers*txnsPerWorker)
			checkHistory(t, c, "g", rec)
		})
	}
}

// outageStorm injects faults until stop is closed: brief outages of one
// datacenter, brief partitions of one link, calm spells — one at a time, so a
// majority always survives.
func outageStorm(c *Cluster, seed int64, stop <-chan struct{}) {
	dcs := c.DCs()
	rng := rand.New(rand.NewSource(seed))
	for {
		select {
		case <-stop:
			return
		default:
		}
		victim := dcs[rng.Intn(len(dcs))]
		switch rng.Intn(3) {
		case 0: // brief outage of one DC (majority survives)
			c.SetDown(victim, true)
			time.Sleep(time.Duration(5+rng.Intn(30)) * time.Millisecond)
			c.SetDown(victim, false)
		case 1: // brief partition of one link
			other := dcs[(indexOf(dcs, victim)+1)%len(dcs)]
			c.Partition(victim, other)
			time.Sleep(time.Duration(5+rng.Intn(30)) * time.Millisecond)
			c.Heal(victim, other)
		case 2: // calm period
			time.Sleep(time.Duration(10+rng.Intn(20)) * time.Millisecond)
		}
	}
}

// healEverything brings every datacenter up and every link back.
func healEverything(c *Cluster) {
	dcs := c.DCs()
	for _, dc := range dcs {
		c.SetDown(dc, false)
	}
	for i, a := range dcs {
		for _, b := range dcs[i+1:] {
			c.Heal(a, b)
		}
	}
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}

// TestServiceRestartFromSnapshot simulates a datacenter process restart:
// its store is saved, the service is rebuilt on the loaded store, and both
// the log and the Paxos acceptor promises must survive.
func TestServiceRestartFromSnapshot(t *testing.T) {
	c := fastCluster(t, "VVV")
	ctx := context.Background()
	rec := &history.Recorder{}
	cl := c.NewClient("V1", core.Config{Protocol: core.CP, Seed: 1})
	attachRecorder(cl, rec)
	for i := 0; i < 4; i++ {
		tx, _ := cl.Begin(ctx, "g")
		tx.Write(fmt.Sprintf("k%d", i), "v")
		if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
			t.Fatalf("commit %d: %+v %v", i, res, err)
		}
	}

	// Snapshot V2's store, then "restart" it: a fresh Service over the
	// loaded store, re-registered at the same network endpoint. Apply
	// fan-out returns at local + majority, so bring V2 up to the last
	// commit deterministically before saving.
	if err := c.Service("V2").CatchUp(ctx, "g", 4); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Store("V2").Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := kvstore.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// A message still in flight to the old V2 can land before the new
	// service exists; a replica mid-restart drops it, as a crashed one does.
	var restarted atomic.Pointer[core.Service]
	ep := c.Sim().EndpointAsync("V2", func(from string, req network.Message, reply func(network.Message)) {
		if s := restarted.Load(); s != nil {
			s.AsyncHandler()(from, req, reply)
		}
	})
	svc2 := core.NewService("V2", restored, ep, core.WithServiceTimeout(c.Timeout()))
	restarted.Store(svc2)

	if got := svc2.LastApplied("g"); got != 4 {
		t.Fatalf("restarted V2 horizon = %d, want 4", got)
	}
	// The restarted replica participates in new commits.
	tx, _ := cl.Begin(ctx, "g")
	tx.Write("after-restart", "v")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed || res.Pos != 5 {
		t.Fatalf("post-restart commit: %+v %v", res, err)
	}
	// Apply fan-out returns at local + majority; pull the restarted replica
	// up explicitly before asserting it holds the new entry.
	if err := svc2.CatchUp(ctx, "g", 5); err != nil {
		t.Fatalf("catch up restarted replica: %v", err)
	}
	if _, ok := svc2.LogSnapshot("g")[5]; !ok {
		t.Fatal("restarted replica missed the new entry")
	}
}
