package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
)

// diskCluster is fastCluster over a disk-backed data directory.
func diskCluster(t *testing.T, spec string) *Cluster {
	t.Helper()
	c := New(Config{
		Topology:  MustPaperTopology(spec),
		NetConfig: network.SimConfig{Seed: 11, Scale: 0.002, Jitter: 0.1},
		Timeout:   150 * time.Millisecond,
		DataDir:   t.TempDir(),
	})
	t.Cleanup(c.Close)
	return c
}

// TestOpenUnusableDataDir: a disk-backed cluster whose data directory
// cannot be recovered is an operator-facing condition — Open must surface
// it as an error (New keeps the panic contract for sim/test call sites).
func TestOpenUnusableDataDir(t *testing.T) {
	dataDir := t.TempDir()
	// Occupy V1's directory path with a regular file so disk.Open fails.
	if err := os.WriteFile(filepath.Join(dataDir, "V1"), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Config{
		Topology: MustPaperTopology("VVV"),
		Timeout:  50 * time.Millisecond,
		DataDir:  dataDir,
	}); err == nil {
		t.Fatal("Open succeeded over an unusable data directory")
	}
}

// TestRefusesStoreWithLegacyAcceptorRows: a data directory an older build
// wrote holds acceptor state under paxos/ — one row per uncompacted position —
// which this build, reading votes from the log rows only, would forget. Open
// refuses it, naming the row, and leaves the directory as it was: there is no
// converter, as with the older snapshot format.
func TestRefusesStoreWithLegacyAcceptorRows(t *testing.T) {
	dataDir := t.TempDir()
	seed := func() *kvstore.Store {
		t.Helper()
		store, _, err := disk.Open(filepath.Join(dataDir, "V2"), disk.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return store
	}
	store := seed()
	legacy := kvstore.PackAttrs("nextBal", "0", "seq", "1", "voteBal", "0", "voteVal", "in-flight")
	if err := store.CheckAndWrite("paxos/g0/7", "seq", "", legacy); err != nil {
		t.Fatal(err)
	}
	store.Close()

	_, err := Open(Config{Topology: MustPaperTopology("VVV"), Timeout: 50 * time.Millisecond, DataDir: dataDir})
	if err == nil || !strings.Contains(err.Error(), "paxos/g0/7") || !strings.Contains(err.Error(), "empty directory") {
		t.Fatalf("Open = %v, want a refusal naming paxos/g0/7 and the remedy", err)
	}
	store = seed()
	defer store.Close()
	if row, _, err := store.ReadPacked("paxos/g0/7", kvstore.Latest); err != nil || row != legacy || store.Len() != 1 {
		t.Fatalf("the refused store was touched: row %v (%v), %d rows", row.Unpack(), err, store.Len())
	}
}

// TestOpenErrorPathLeaksNoGoroutines: a failed Open must fully unwind the
// partially built cluster — the simulator's delivery goroutines, every
// already-built service's apply pool and submit pipelines, and the
// recovered stores' disk flushers. Pinned with a bare goroutine-count delta
// and a grace window for asynchronous winddown (no external leak detector).
func TestOpenErrorPathLeaksNoGoroutines(t *testing.T) {
	dataDir := t.TempDir()
	dcs := MustPaperTopology("VVV").DCs()
	// Occupy the LAST datacenter's directory path with a regular file, so
	// every earlier replica's store and service are fully built — and must
	// be fully torn down — before Open fails on the final one.
	last := dcs[len(dcs)-1]
	if err := os.WriteFile(filepath.Join(dataDir, last), []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		if _, err := Open(Config{
			Topology: MustPaperTopology("VVV"),
			Timeout:  50 * time.Millisecond,
			DataDir:  dataDir,
		}); err == nil {
			t.Fatal("Open succeeded over an unusable data directory")
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if now := runtime.NumGoroutine(); now <= base+2 { // runtime jitter headroom
			return
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("failed Opens leaked goroutines: baseline %d, now %d\n%s", base, now, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashRestartDeterministic is the single-shot version of the nemesis:
// commit, hard-kill one replica, restart it from disk, and verify it rejoined
// with everything it had acknowledged — Paxos promises, log entries, applied
// watermark — then participates in new commits.
func TestCrashRestartDeterministic(t *testing.T) {
	c := diskCluster(t, "VVV")
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
	// Apply fan-out returns at local + majority; pin V2 to the last commit so
	// the crash has a known durable horizon to recover.
	if err := c.Service("V2").CatchUp(ctx, "g", 4); err != nil {
		t.Fatal(err)
	}

	if err := c.Crash("V2"); err != nil {
		t.Fatal(err)
	}
	if c.Service("V2") != nil {
		t.Fatal("crashed service still resolvable")
	}
	// The surviving majority keeps committing while V2 is dead.
	tx, _ := cl.Begin(ctx, "g")
	tx.Write("during-outage", "v")
	if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
		t.Fatalf("commit during outage: %+v %v", res, err)
	}

	if err := c.Restart("V2"); err != nil {
		t.Fatal(err)
	}
	if got := c.Service("V2").LastApplied("g"); got != 4 {
		t.Fatalf("restarted V2 watermark = %d, want 4 (everything acknowledged pre-crash)", got)
	}
	if err := c.Recover(ctx, "V2", "g"); err != nil {
		t.Fatalf("recover after restart: %v", err)
	}
	if _, ok := c.Service("V2").LogSnapshot("g")[5]; !ok {
		t.Fatal("restarted replica missed the entry committed during its outage")
	}
	// And it participates in brand-new commits.
	tx, _ = cl.Begin(ctx, "g")
	tx.Write("after-restart", "v")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed {
		t.Fatalf("post-restart commit: %+v %v", res, err)
	}
	if err := c.Service("V2").CatchUp(ctx, "g", res.Pos); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Service("V2").LogSnapshot("g")[res.Pos]; !ok {
		t.Fatal("restarted replica missed the post-restart entry")
	}
	checkHistory(t, c, "g", rec)
}

// TestCrashRestartNemesis runs a commit workload while a nemesis repeatedly
// kill -9s single replicas mid-traffic (power loss included: unflushed WAL
// bytes are discarded), restarts them from disk, and catches them up. The
// majority invariant is never broken on purpose — one victim at a time — but
// crashes land at arbitrary protocol moments, including on the master.
// Afterwards the epoch-aware history checker must report zero lost or
// duplicated commits.
func TestCrashRestartNemesis(t *testing.T) {
	if testing.Short() {
		t.Skip("crash nemesis skipped in short mode")
	}
	c := New(Config{
		Topology:  MustPaperTopology("VVV"),
		NetConfig: network.SimConfig{Seed: 99, Scale: 0.002, Jitter: 0.2},
		Timeout:   60 * time.Millisecond,
		DataDir:   t.TempDir(),
	})
	defer c.Close()
	ctx := context.Background()
	rec := &history.Recorder{}
	dcs := c.DCs()

	stop := make(chan struct{})
	var nemesisWG sync.WaitGroup
	nemesisWG.Add(1)
	crashes := 0
	go func() {
		defer nemesisWG.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			victim := dcs[rng.Intn(len(dcs))]
			if err := c.Crash(victim); err != nil {
				t.Errorf("crash %s: %v", victim, err)
				return
			}
			crashes++
			time.Sleep(time.Duration(5+rng.Intn(30)) * time.Millisecond)
			if err := c.Restart(victim); err != nil {
				t.Errorf("restart %s: %v", victim, err)
				return
			}
			if err := c.Recover(ctx, victim, "g"); err != nil {
				t.Errorf("recover %s: %v", victim, err)
				return
			}
			time.Sleep(time.Duration(10+rng.Intn(20)) * time.Millisecond)
		}
	}()

	const workers = 5
	const txnsPerWorker = 12
	var wg sync.WaitGroup
	var committed int
	var mu sync.Mutex
	for i := 0; i < workers; i++ {
		cl := c.NewClient(dcs[i%len(dcs)], core.Config{
			Protocol: core.CP, Seed: int64(i + 1), MaxRetries: 10,
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
	if t.Failed() {
		return
	}

	// Quiesce: every replica recovered and caught up before checking.
	for _, dc := range dcs {
		if err := c.Recover(ctx, dc, "g"); err != nil {
			t.Fatalf("final recover %s: %v", dc, err)
		}
	}
	if committed == 0 {
		t.Fatal("nothing committed through the crash storm")
	}
	if crashes == 0 {
		t.Fatal("nemesis never crashed anything; test proved nothing")
	}
	t.Logf("CP: %d/%d committed through %d kill-9 crash/restart cycles", committed, workers*txnsPerWorker, crashes)
	checkHistory(t, c, "g", rec)
}

// TestDurableCommitFsyncsPerReplica counts, without a clock, the flushes a
// durable Master-protocol commit waits for: two per replica — the acceptor's
// vote, then the apply batch, which carries the entry's log row, its data
// writes and the watermark under one sync (DESIGN.md §14). The log row used
// to be flushed on its own between the two, three per replica; a fourth
// serial sync point anywhere on the path shows here as 4N.
func TestDurableCommitFsyncsPerReplica(t *testing.T) {
	c := New(Config{
		Topology:  MustPaperTopology("VVV"),
		NetConfig: network.SimConfig{Seed: 11, Scale: 0.002},
		Timeout:   500 * time.Millisecond,
		DataDir:   t.TempDir(),
		DiskOptions: func(string) disk.Options {
			return disk.Options{Logf: func(string, ...any) {}}
		},
	})
	defer c.Close()
	ctx := context.Background()
	cl := c.NewClient("V1", core.Config{Protocol: core.Master, MasterDC: "V1", Seed: 1})
	commit := func(i int) {
		t.Helper()
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 4; w++ {
			tx.Write(fmt.Sprintf("k%d", (i+w)%16), fmt.Sprintf("v%d", i))
		}
		if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
			t.Fatalf("commit %d: %+v %v", i, res, err)
		}
	}
	// The client is acknowledged at a majority; the count starts and ends
	// with every replica having applied everything.
	settle := func() {
		t.Helper()
		waitUntil(t, 5*time.Second, "every replica to apply every commit", func() bool {
			want := c.Service("V1").LastApplied("g")
			return c.Service("V2").LastApplied("g") == want && c.Service("V3").LastApplied("g") == want
		})
	}
	commit(0) // claims mastership
	settle()
	before := make(map[string]uint64)
	for _, dc := range c.DCs() {
		before[dc] = c.Engine(dc).Fsyncs()
	}
	const n = 25
	for i := 1; i <= n; i++ {
		commit(i)
	}
	settle()
	// One serial client: a replica's flushes do not overlap, so every sync
	// point is one fsync. The slack allows a stray one (a late duplicate).
	const slack = 2
	for _, dc := range c.DCs() {
		got := c.Engine(dc).Fsyncs() - before[dc]
		t.Logf("%s: %d fsyncs for %d commits", dc, got, n)
		if got > 2*n+slack {
			t.Errorf("%s: %d fsyncs for %d commits, want at most 2 per commit (+%d)", dc, got, n, slack)
		}
	}
}
