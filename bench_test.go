package paxoscp

// Module-root benchmarks: one testing.B benchmark per figure of the paper's
// evaluation (§6) plus microbenchmarks of the protocol building blocks.
// Figure benchmarks run a compressed experiment per iteration and report
// commit counts as custom metrics; the full-scale reproduction is
// cmd/paxosbench.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/bench"
	"paxoscp/internal/cluster"
	"paxoscp/internal/core"
	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
	"paxoscp/internal/ycsb"
)

// benchOpts compresses an experiment so one iteration stays ~100ms.
func benchOpts(seed int64) bench.Options {
	return bench.Options{Scale: 0.001, Txns: 24, Threads: 4, Seed: seed}
}

// runFigure benchmarks one experiment configuration and reports commits and
// aborts per run as metrics.
func runFigure(b *testing.B, e bench.Experiment) {
	b.Helper()
	var commits, total int
	for i := 0; i < b.N; i++ {
		sum, err := bench.RunExperiment(benchOpts(int64(i+1)), e)
		if err != nil {
			b.Fatal(err)
		}
		commits += sum.Commits
		total += sum.Total
	}
	b.ReportMetric(float64(commits)/float64(b.N), "commits/run")
	b.ReportMetric(100*float64(commits)/float64(total), "%commit")
}

// --- Figure 4: replica-count sweep -------------------------------------

func BenchmarkFig4Replicas2Paxos(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VV", Protocol: core.Basic})
}

func BenchmarkFig4Replicas2PaxosCP(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VV", Protocol: core.CP})
}

func BenchmarkFig4Replicas3Paxos(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVV", Protocol: core.Basic})
}

func BenchmarkFig4Replicas3PaxosCP(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVV", Protocol: core.CP})
}

func BenchmarkFig4Replicas5Paxos(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVVOC", Protocol: core.Basic})
}

func BenchmarkFig4Replicas5PaxosCP(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVVOC", Protocol: core.CP})
}

// --- Figure 5: cluster-composition sweep --------------------------------

func BenchmarkFig5ClusterOVPaxos(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "OV", Protocol: core.Basic})
}

func BenchmarkFig5ClusterOVPaxosCP(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "OV", Protocol: core.CP})
}

func BenchmarkFig5ClusterCOVPaxos(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "COV", Protocol: core.Basic})
}

func BenchmarkFig5ClusterCOVPaxosCP(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "COV", Protocol: core.CP})
}

// --- Figure 6: contention sweep ------------------------------------------

func BenchmarkFig6Contention20Paxos(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVV", Protocol: core.Basic, Attributes: 20})
}

func BenchmarkFig6Contention20PaxosCP(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVV", Protocol: core.CP, Attributes: 20})
}

func BenchmarkFig6Contention500Paxos(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVV", Protocol: core.Basic, Attributes: 500})
}

func BenchmarkFig6Contention500PaxosCP(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVV", Protocol: core.CP, Attributes: 500})
}

// --- Figure 7: offered-load sweep ----------------------------------------

func BenchmarkFig7Load4xPaxos(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVV", Protocol: core.Basic, LoadFactor: 4})
}

func BenchmarkFig7Load4xPaxosCP(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVV", Protocol: core.CP, LoadFactor: 4})
}

func BenchmarkFig7Load16xPaxos(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVV", Protocol: core.Basic, LoadFactor: 16})
}

func BenchmarkFig7Load16xPaxosCP(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VVV", Protocol: core.CP, LoadFactor: 16})
}

// --- Figure 8: per-datacenter instances (VOC) ----------------------------

func BenchmarkFig8VOCPaxos(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VOC", Protocol: core.Basic})
}

func BenchmarkFig8VOCPaxosCP(b *testing.B) {
	runFigure(b, bench.Experiment{Topology: "VOC", Protocol: core.CP})
}

// --- Protocol microbenchmarks --------------------------------------------

// newBenchCluster builds a minimal-latency 3-DC cluster for microbenchmarks.
func newBenchCluster(b *testing.B) *cluster.Cluster {
	b.Helper()
	c := cluster.New(cluster.Config{
		Topology:  cluster.MustPaperTopology("VVV"),
		NetConfig: network.SimConfig{Seed: 9, Scale: 0.0005},
		Timeout:   100 * time.Millisecond,
	})
	b.Cleanup(c.Close)
	return c
}

// BenchmarkCommitSequential measures a full uncontended commit round trip
// (begin, one write, commit) per protocol.
func BenchmarkCommitSequentialPaxos(b *testing.B)   { benchCommit(b, core.Basic) }
func BenchmarkCommitSequentialPaxosCP(b *testing.B) { benchCommit(b, core.CP) }

func benchCommit(b *testing.B, proto core.Protocol) {
	c := newBenchCluster(b)
	cl := c.NewClient("V1", core.Config{Protocol: proto, Seed: 1})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			b.Fatal(err)
		}
		tx.Write(fmt.Sprintf("k%d", i%32), "v")
		res, err := tx.Commit(ctx)
		if err != nil || res.Status != stats.Committed {
			b.Fatalf("commit %d: %+v %v", i, res, err)
		}
	}
}

// BenchmarkSubmitThroughput measures the master submit path under many
// concurrent clients hammering one group: the serial baseline (window=1 — a
// single Paxos position in flight, as the pre-pipeline master behaved) vs
// the pipelined path (window=8), both with combination on. The commits/sec
// metric is the figure of merit; the pipelined row must sustain at least 2x
// the serial baseline (see DESIGN.md §8).
func BenchmarkSubmitThroughput(b *testing.B) {
	for _, w := range []int{1, 8} {
		b.Run(fmt.Sprintf("window=%d", w), func(b *testing.B) {
			benchSubmitThroughput(b, w)
		})
	}
}

func benchSubmitThroughput(b *testing.B, window int) {
	const clients = 16
	c := cluster.New(cluster.Config{
		Topology:     cluster.MustPaperTopology("VVV"),
		NetConfig:    network.SimConfig{Seed: 9, Scale: 0.2},
		Timeout:      200 * time.Millisecond,
		SubmitWindow: window,
	})
	defer c.Close()
	ctx := context.Background()
	var next int64
	var wg sync.WaitGroup
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < clients; i++ {
		cl := c.NewClient(c.DCs()[i%3], core.Config{
			Protocol: core.Master, MasterDC: "V1", Seed: int64(i + 1),
		})
		wg.Add(1)
		go func(i int, cl *core.Client) {
			defer wg.Done()
			for {
				n := atomic.AddInt64(&next, 1)
				if n > int64(b.N) {
					return
				}
				tx, err := cl.Begin(ctx, "g")
				if err != nil {
					b.Error(err)
					return
				}
				tx.Write(fmt.Sprintf("c%d-k%d", i, n%32), "v")
				res, err := tx.Commit(ctx)
				if err != nil || res.Status != stats.Committed {
					b.Errorf("commit %d: %+v %v", n, res, err)
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	b.ReportMetric(float64(b.N)/time.Since(start).Seconds(), "commits/sec")
}

// BenchmarkServiceApplyBurst measures decided-entry application through the
// per-group replicated log (internal/replog): each iteration delivers a
// burst of 32 consecutive decided positions from concurrent appliers — the
// apply fan-in pattern every commit produces — and waits for the watermark
// to cover the burst. The service's apply pool drains the burst as kvstore
// write batches.
func BenchmarkServiceApplyBurst(b *testing.B) {
	s := core.NewService("A", kvstore.New(), nil)
	defer s.Close()
	const burst = 32
	var pos int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < burst; j++ {
			pos++
			p := pos
			payload := wal.Encode(wal.NewEntry(wal.Txn{
				ID: fmt.Sprintf("t%d", p), Origin: "A", ReadPos: p - 1,
				Writes: map[string]string{fmt.Sprintf("k%d", p%64): "v"},
			}))
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.ApplyDecided("g", p, payload); err != nil {
					b.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

// --- Read path: batched multi-key reads (DESIGN.md §9) -------------------

// readBenchKeys is the 8-key batch BenchmarkReadThroughput reads per
// transaction.
var readBenchKeys = []string{"attr1", "attr2", "attr3", "attr4", "attr5", "attr6", "attr7", "attr8"}

// seedReadBench commits one transaction writing every benchmark key.
func seedReadBench(b *testing.B, cl *core.Client) {
	b.Helper()
	ctx := context.Background()
	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range readBenchKeys {
		tx.Write(k, "value-"+k)
	}
	if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
		b.Fatalf("seed: %+v %v", res, err)
	}
}

// benchReadTxns runs b.N read-only transactions of 8 keys each, either as 8
// per-key RPCs (the seed read path) or as one ReadMulti round trip, and
// reports keys/sec. The multi rows must sustain at least 2x the per-key
// rows (BENCH_6.json records the measured ratio).
func benchReadTxns(b *testing.B, cl *core.Client, multi bool) {
	b.Helper()
	ctx := context.Background()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			b.Fatal(err)
		}
		if multi {
			vals, _, err := tx.ReadMulti(ctx, readBenchKeys...)
			if err != nil {
				b.Fatal(err)
			}
			if vals[0] != "value-attr1" {
				b.Fatalf("vals = %v", vals)
			}
		} else {
			for _, k := range readBenchKeys {
				if v, _, err := tx.Read(ctx, k); err != nil || v != "value-"+k {
					b.Fatalf("read %s = %q %v", k, v, err)
				}
			}
		}
		tx.Abort()
	}
	elapsed := time.Since(start)
	b.ReportMetric(float64(b.N*len(readBenchKeys))/elapsed.Seconds(), "keys/sec")
}

// newUDPBenchServices wires three Transaction Services over the real UDP
// transport on localhost (binary wire codec end to end) plus a client
// transport homed at V1 — the same shape cmd/txkvd + cmd/txkvctl deploy.
func newUDPBenchServices(b *testing.B) *network.UDP {
	b.Helper()
	dcs := []string{"V1", "V2", "V3"}
	services := make(map[string]*core.Service, len(dcs))
	var mu sync.Mutex
	transports := make(map[string]*network.UDP, len(dcs))
	for _, dc := range dcs {
		dc := dc
		tr, err := network.NewUDPAsync(dc, "127.0.0.1:0", nil, func(from string, req network.Message, reply func(network.Message)) {
			mu.Lock()
			svc := services[dc]
			mu.Unlock()
			if svc == nil {
				reply(network.Status(false, "not ready"))
				return
			}
			svc.AsyncHandler()(from, req, reply)
		})
		if err != nil {
			b.Fatal(err)
		}
		transports[dc] = tr
	}
	for _, tr := range transports {
		for peer, ptr := range transports {
			if err := tr.SetPeer(peer, ptr.LocalAddr()); err != nil {
				b.Fatal(err)
			}
		}
	}
	mu.Lock()
	for _, dc := range dcs {
		services[dc] = core.NewService(dc, kvstore.New(), transports[dc],
			core.WithServiceTimeout(500*time.Millisecond))
	}
	mu.Unlock()
	client, err := network.NewUDPAsync("client", "127.0.0.1:0", nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	for dc, tr := range transports {
		if err := client.SetPeer(dc, tr.LocalAddr()); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() {
		client.Close()
		for _, svc := range services {
			svc.Close()
		}
		for _, tr := range transports {
			tr.Close()
		}
	})
	return client
}

// BenchmarkReadThroughput measures the read hot path: 8-key read-only
// transactions over the simulated WAN and over real UDP loopback datagrams,
// per-key vs batched. Begin is messageless (lazy read positions), so each
// iteration costs 8 RPCs in per-key mode and 1 in multi mode.
func BenchmarkReadThroughput(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		c := newBenchCluster(b)
		cl := c.NewClient("V1", core.Config{Seed: 1})
		seedReadBench(b, cl)
		b.Run("perkey", func(b *testing.B) { benchReadTxns(b, cl, false) })
		b.Run("multi", func(b *testing.B) { benchReadTxns(b, cl, true) })
	})
	b.Run("udp", func(b *testing.B) {
		client := newUDPBenchServices(b)
		cl := core.NewClient(1, "V1", client, core.Config{Seed: 1, Timeout: 500 * time.Millisecond})
		seedReadBench(b, cl)
		b.Run("perkey", func(b *testing.B) { benchReadTxns(b, cl, false) })
		b.Run("multi", func(b *testing.B) { benchReadTxns(b, cl, true) })
	})
}

// BenchmarkRead measures a served read at the read position.
func BenchmarkRead(b *testing.B) {
	c := newBenchCluster(b)
	cl := c.NewClient("V1", core.Config{Seed: 1})
	ctx := context.Background()
	tx, _ := cl.Begin(ctx, "g")
	tx.Write("k", "v")
	if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
		b.Fatalf("seed: %+v %v", res, err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx, err := cl.Begin(ctx, "g")
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := tx.Read(ctx, "k"); err != nil {
			b.Fatal(err)
		}
		tx.Abort()
	}
}

// BenchmarkKVStore measures the storage substrate's three operations.
func BenchmarkKVStoreWrite(b *testing.B) {
	s := kvstore.New()
	v := kvstore.Value{"v": "value"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Write(fmt.Sprintf("k%d", i%1024), v, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVStoreRead(b *testing.B) {
	s := kvstore.New()
	for i := 0; i < 1024; i++ {
		s.Write(fmt.Sprintf("k%d", i), kvstore.Value{"v": "value"}, 0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.Read(fmt.Sprintf("k%d", i%1024), kvstore.Latest); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKVStoreCheckAndWrite(b *testing.B) {
	s := kvstore.New()
	prev := ""
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next := fmt.Sprint(i)
		if err := s.CheckAndWrite("k", "seq", prev, kvstore.Value{"seq": next}); err != nil {
			b.Fatal(err)
		}
		prev = next
	}
}

// BenchmarkWALCodec measures log entry encode/decode.
func BenchmarkWALEncode(b *testing.B) {
	e := benchEntry()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wal.Encode(e)
	}
}

func BenchmarkWALDecode(b *testing.B) {
	data := wal.Encode(benchEntry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wal.Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEntry() wal.Entry {
	return wal.NewEntry(
		wal.Txn{ID: "txn-1", Origin: "V1", ReadPos: 42,
			ReadSet: []string{"attr1", "attr2", "attr3", "attr4", "attr5"},
			Writes:  map[string]string{"attr6": "v6", "attr7": "v7", "attr8": "v8"}},
		wal.Txn{ID: "txn-2", Origin: "O", ReadPos: 42,
			ReadSet: []string{"attr9"},
			Writes:  map[string]string{"attr10": "v10"}},
	)
}

// BenchmarkAcceptor measures the Paxos acceptor's state transitions through
// the kvstore.
func BenchmarkAcceptorPrepare(b *testing.B) {
	a := paxos.NewAcceptor(kvstore.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Prepare("g", int64(i), paxos.Ballot(1, 1)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAcceptorAccept(b *testing.B) {
	a := paxos.NewAcceptor(kvstore.New())
	val := wal.Encode(benchEntry())
	for i := 0; i < b.N; i++ {
		if _, err := a.Prepare("g", int64(i), paxos.Ballot(1, 1)); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.Accept("g", int64(i), paxos.Ballot(1, 1), val); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkYCSBGenerator measures workload generation.
func BenchmarkYCSBGenerator(b *testing.B) {
	g := ycsb.NewGenerator(ycsb.Workload{Attributes: 100, OpsPerTxn: 10}, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.NextTxn()
	}
}
