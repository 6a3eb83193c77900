package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/kvstore/disk/faultfs"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
)

// faultyDiskCluster builds a disk-backed cluster with a faultfs injector
// under every replica's engine, returning the per-DC injectors. Restart
// installs a fresh (clean) injector — the disk-replacement model: a replica
// that fail-stopped comes back on healthy hardware.
func faultyDiskCluster(t *testing.T, cfg Config) (*Cluster, func(dc string) *faultfs.FS) {
	t.Helper()
	var mu sync.Mutex
	injectors := map[string]*faultfs.FS{}
	cfg.DiskOptions = func(dc string) disk.Options {
		inj := faultfs.New(nil)
		mu.Lock()
		injectors[dc] = inj
		mu.Unlock()
		return disk.Options{
			FS: inj,
			// Small segments seal quickly (scrub targets); huge compaction
			// threshold keeps sealed segments around to corrupt.
			SegmentBytes:    2048,
			CompactSegments: 1 << 20,
		}
	}
	c := New(cfg)
	t.Cleanup(c.Close)
	return c, func(dc string) *faultfs.FS {
		mu.Lock()
		defer mu.Unlock()
		return injectors[dc]
	}
}

func waitUntil(t *testing.T, d time.Duration, what string, f func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if f() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestEngineFailStopFailsOver is the deterministic single-fault version of
// the disk nemesis: the master's storage engine fail-stops mid-traffic and
// the contract of DESIGN.md §14 plays out end to end — the victim refuses
// mutations with VerdictReplicaFailed but keeps serving reads, its
// lease lapses un-renewed, a healthy replica claims the next epoch on the
// ordinary dead-master path, and clients pointed at the dead master commit
// there without manual intervention.
func TestEngineFailStopFailsOver(t *testing.T) {
	const lease = 250 * time.Millisecond
	c, inj := faultyDiskCluster(t, Config{
		Topology:      MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: 17, Scale: 0.002, Jitter: 0.1},
		Timeout:       80 * time.Millisecond,
		DataDir:       t.TempDir(),
		LeaseDuration: lease,
	})
	ctx := context.Background()
	rec := &history.Recorder{}

	cl := c.NewClient("V2", core.Config{Protocol: core.Master, MasterDC: "V1", Seed: 1})
	attachRecorder(cl, rec)
	commit := func(key, val string) (core.CommitResult, error) {
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			return core.CommitResult{}, err
		}
		tx.Write(key, val)
		return tx.Commit(ctx)
	}
	// Seed mastership and traffic at V1 (epoch 1).
	for i := 0; i < 3; i++ {
		if res, err := commit(fmt.Sprintf("seed%d", i), "v"); err != nil || res.Status != stats.Committed {
			t.Fatalf("seed commit %d: %+v %v", i, res, err)
		}
	}

	// The disk under the master dies: every fsync fails from here on.
	inj("V1").StickyFailFsyncs(0)
	// The next mutation at V1 — its own submit, an apply, a lease renewal —
	// trips the fail-stop. Drive traffic until it does; these commits may
	// fail or succeed depending on where the fault lands first.
	waitUntil(t, 5*time.Second, "V1 engine fail-stop", func() bool {
		commit("tripwire", "v")
		return c.Engine("V1").Fault() != nil
	})

	// Operator view: the victim's status reports the fault; reads survive.
	if st := c.Service("V1").Status("g"); st.Fault == "" {
		t.Fatalf("victim GroupStatus.Fault empty: %+v", st)
	}
	if c.Store("V1").Len() == 0 {
		t.Fatal("failed replica lost its in-memory read image")
	}

	// Client view: commits pointed at the dead master keep succeeding — the
	// client hops off the VerdictReplicaFailed refusal, waits out the lease, and
	// a healthy replica claims the next epoch.
	var res core.CommitResult
	waitUntil(t, 15*time.Second, "failover commit under a new epoch", func() bool {
		r, err := commit("failover", "v")
		if err == nil && r.Status == stats.Committed && r.Epoch >= 2 {
			res = r
			return true
		}
		return false
	})
	st := c.Service("V2").Status("g")
	if st.Master == "V1" {
		t.Fatalf("mastership still at the failed replica: %+v", st)
	}
	if st.Epoch < 2 {
		t.Fatalf("no new epoch after failover: %+v", st)
	}
	t.Logf("failover: epoch %d at %s, commit %+v", st.Epoch, st.Master, res)

	// Disk replaced: restart the victim on clean hardware and converge.
	if err := c.Crash("V1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("V1"); err != nil {
		t.Fatal(err)
	}
	for _, dc := range c.DCs() {
		if err := c.Recover(ctx, dc, "g"); err != nil {
			t.Fatalf("recover %s: %v", dc, err)
		}
	}
	if f := c.Engine("V1").Fault(); f != nil {
		t.Fatalf("restarted replica still poisoned: %v", f)
	}
	if res, err := commit("post-restart", "v"); err != nil || res.Status != stats.Committed {
		t.Fatalf("post-restart commit: %+v %v", res, err)
	}
	checkHistory(t, c, "g", rec)
}

// TestReplicaFailedVerdictReachesClient pins the client-visible half of the
// verdict contract: VerdictReplicaFailed is definitive at the answering
// replica but retryable elsewhere — so only when EVERY replica's storage has
// failed does the client surface it, as a *core.Refusal carrying the verdict,
// instead of retrying forever.
func TestReplicaFailedVerdictReachesClient(t *testing.T) {
	c, inj := faultyDiskCluster(t, Config{
		Topology:      MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: 23, Scale: 0.002, Jitter: 0.1},
		Timeout:       60 * time.Millisecond,
		DataDir:       t.TempDir(),
		LeaseDuration: 200 * time.Millisecond,
	})
	ctx := context.Background()
	cl := c.NewClient("V1", core.Config{Protocol: core.Master, MasterDC: "V1", Seed: 1})
	tx, _ := cl.Begin(ctx, "g")
	tx.Write("seed", "v")
	if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
		t.Fatalf("seed: %+v %v", res, err)
	}

	// Every disk in the fleet dies at once (a bad firmware push, say).
	for _, dc := range c.DCs() {
		inj(dc).StickyFailFsyncs(0)
	}
	// Drive commits until all three engines have tripped (paxos promises and
	// applies mutate the store on every replica, so traffic poisons all of
	// them), then until the client's verdict is the terminal marker.
	var lastErr error
	waitUntil(t, 20*time.Second, "terminal replica-failed verdict", func() bool {
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			return false
		}
		tx.Write("doomed", "v")
		_, lastErr = tx.Commit(ctx)
		if lastErr == nil {
			return false
		}
		for _, dc := range c.DCs() {
			if c.Engine(dc).Fault() == nil {
				return false
			}
		}
		var ref *core.Refusal
		return errors.As(lastErr, &ref) && ref.Verdict == network.VerdictReplicaFailed
	})
	if !strings.Contains(lastErr.Error(), "no healthy replica left") {
		t.Logf("terminal error (verdict present, hop summary differs): %v", lastErr)
	}
	// All three refuse mutations; all three still serve their read image.
	for _, dc := range c.DCs() {
		if st := c.Service(dc).Status("g"); st.Fault == "" {
			t.Errorf("%s: no fault in status after fleet-wide disk failure", dc)
		}
		if c.Store(dc).Len() == 0 {
			t.Errorf("%s: read image gone", dc)
		}
	}
}

// TestDiskFaultNemesis is the combined nemesis the issue names: one seeded
// deterministic schedule composing network partitions, kill -9 power loss,
// and disk faults (a fail-stopped master mid-traffic), with live clients
// throughout. Afterwards the epoch-aware history checker must report zero
// lost or duplicated commits, mastership must have moved to a healthy
// replica under a new epoch, and a scrub must detect a bit-flip injected
// into a healthy replica's sealed segment without crashing it.
func TestDiskFaultNemesis(t *testing.T) {
	if testing.Short() {
		t.Skip("disk-fault nemesis skipped in short mode")
	}
	const lease = 300 * time.Millisecond
	dataDir := t.TempDir()
	c, inj := faultyDiskCluster(t, Config{
		Topology:      MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: 42, Scale: 0.002, Jitter: 0.2},
		Timeout:       80 * time.Millisecond,
		DataDir:       dataDir,
		LeaseDuration: lease,
		SubmitWindow:  4,
	})
	ctx := context.Background()
	rec := &history.Recorder{}

	var mu sync.Mutex
	committed := 0
	maxEpoch := int64(0)
	attach := func(cl *core.Client) {
		cl.OnCommit = func(pos int64, txn core.CommittedTxn) {
			mu.Lock()
			committed++
			if txn.Epoch > maxEpoch {
				maxEpoch = txn.Epoch
			}
			mu.Unlock()
			rec.Record(history.Commit{
				ID: txn.ID, Origin: txn.Origin, ReadPos: txn.ReadPos,
				Pos: pos, Reads: txn.Reads, Writes: txn.Writes,
			})
		}
	}

	// Live traffic through every phase: read-modify-write workers at all
	// three datacenters, pointed at V1's mastership, looping until stopped.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		cl := c.NewClient(c.DCs()[w%3], core.Config{
			Protocol: core.Master, MasterDC: "V1", Seed: int64(w + 1),
		})
		attach(cl)
		wg.Add(1)
		go func(w int, cl *core.Client) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tx, err := cl.Begin(ctx, "g")
				if err != nil {
					continue
				}
				if _, _, err := tx.Read(ctx, fmt.Sprintf("k%d", (w+i)%5)); err != nil {
					tx.Abort()
					continue
				}
				tx.Write(fmt.Sprintf("k%d", (w*2+i+1)%5), fmt.Sprintf("%d-%d", w, i))
				tx.Commit(ctx) // any verdict; truthfulness audited by checkHistory
			}
		}(w, cl)
	}
	phase := func(name string) int {
		mu.Lock()
		defer mu.Unlock()
		t.Logf("nemesis phase: %s (%d committed so far)", name, committed)
		return committed
	}

	// Phase 1 — network: a partition that preserves quorum on both sides,
	// healed after a few lease terms.
	phase("partition V2-V3")
	c.Partition("V2", "V3")
	time.Sleep(3 * lease / 2)
	c.Heal("V2", "V3")

	// Phase 2 — power: kill -9 a non-master replica (unflushed tail
	// discarded), restart it from disk, catch it up.
	phase("kill -9 V3")
	if err := c.Crash("V3"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(lease / 2)
	if err := c.Restart("V3"); err != nil {
		t.Fatal(err)
	}
	if err := c.Recover(ctx, "V3", "g"); err != nil {
		t.Fatal(err)
	}

	// Phase 3 — disk: the master's drive dies mid-traffic. The traffic
	// itself trips the fail-stop; failover needs no nemesis help.
	phase("kill V1's disk")
	inj("V1").StickyFailFsyncs(0)
	waitUntil(t, 10*time.Second, "V1 engine fail-stop", func() bool {
		return c.Engine("V1").Fault() != nil
	})
	if st := c.Service("V1").Status("g"); st.Fault == "" {
		t.Fatalf("victim GroupStatus.Fault empty: %+v", st)
	}
	// Failover: a healthy replica holds a new epoch and commits flow again.
	waitUntil(t, 20*time.Second, "commits under a post-failover epoch", func() bool {
		st := c.Service("V2").Status("g")
		mu.Lock()
		epoch := maxEpoch
		mu.Unlock()
		return st.Master != "V1" && st.Epoch >= 2 && epoch >= 2
	})
	phase("failed over")

	// Quiesce: stop traffic, replace V1's disk (Restart installs a clean
	// injector), converge every replica.
	close(stop)
	wg.Wait()
	if err := c.Crash("V1"); err != nil {
		t.Fatal(err)
	}
	if err := c.Restart("V1"); err != nil {
		t.Fatal(err)
	}
	for _, dc := range c.DCs() {
		if err := c.Recover(ctx, dc, "g"); err != nil {
			t.Fatalf("final recover %s: %v", dc, err)
		}
	}

	// Phase 4 — rot: flip one bit in a sealed segment on a HEALTHY replica.
	// The scrub must report it as health; the replica must not crash and
	// must keep committing.
	phase("bit rot on V2")
	segs, err := filepath.Glob(filepath.Join(dataDir, "V2", "wal-*.log"))
	if err != nil || len(segs) < 2 {
		t.Fatalf("want >=2 segments on V2 for a sealed-segment flip, have %v (%v)", segs, err)
	}
	rotted := filepath.Base(segs[0])
	inj("V2").FlipBitOnRead(rotted, 9)
	rep, err := c.Engine("V2").Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	found := false
	for _, f := range rep.Corrupt {
		if f == rotted {
			found = true
		}
	}
	if !found {
		t.Fatalf("scrub missed the injected flip in %s: %+v", rotted, rep)
	}
	if f := c.Engine("V2").Fault(); f != nil {
		t.Fatalf("scrub finding crashed the replica: %v", f)
	}
	if st := c.Service("V2").Status("g"); len(st.ScrubCorrupt) == 0 {
		t.Fatalf("scrub finding not surfaced in status: %+v", st)
	}
	final := c.NewClient("V3", core.Config{Protocol: core.Master, MasterDC: "V2", Seed: 99})
	attach(final)
	tx, err := final.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("post-rot", "v")
	if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
		t.Fatalf("commit on a replica with scrub findings: %+v %v", res, err)
	}

	mu.Lock()
	total, epoch := committed, maxEpoch
	mu.Unlock()
	if total == 0 {
		t.Fatal("nothing committed through the nemesis")
	}
	if epoch < 2 {
		t.Fatalf("max committed epoch %d; failover never carried traffic", epoch)
	}
	t.Logf("disk nemesis: %d commits, max epoch %d, scrub flagged %v", total, epoch, rep.Corrupt)
	checkHistory(t, c, "g", rec)

	// The nemesis used os-level paths only through the injectors; nothing
	// should have leaked temp files into the data dirs.
	if ents, err := os.ReadDir(filepath.Join(dataDir, "V1")); err != nil || len(ents) == 0 {
		t.Fatalf("V1 data dir unreadable after nemesis: %v %v", ents, err)
	}
}
