package bench

import (
	"context"
	"fmt"
	"time"

	"paxoscp/internal/cluster"
	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
	"paxoscp/internal/ycsb"
)

// Options tunes experiment execution.
type Options struct {
	// Scale multiplies every latency, timeout, and pacing interval
	// (default 1/15). Smaller is faster but noisier.
	Scale float64
	// Txns is the number of transactions per experiment (paper: 500).
	Txns int
	// Threads is the number of concurrent workload threads (paper: 4).
	Threads int
	// Seed makes runs reproducible.
	Seed int64
	// Verbose, when set, receives progress lines.
	Verbose func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Scale <= 0 {
		o.Scale = 1.0 / 15
	}
	if o.Txns <= 0 {
		o.Txns = 500
	}
	if o.Threads <= 0 {
		o.Threads = 4
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	if o.Verbose == nil {
		o.Verbose = func(string, ...any) {}
	}
	return o
}

// paperTimeout is the unscaled message-loss detection timeout (§6).
const paperTimeout = 2 * time.Second

// paperInterval is the unscaled per-thread pacing target ("a target of one
// transaction per second", §6).
const paperInterval = 1 * time.Second

// runSpec describes one experiment run.
type runSpec struct {
	name     string
	topology string // paper notation, e.g. "VVV"
	protocol core.Protocol
	cfgEdit  func(*core.Config) // optional per-client config tweaks

	attributes int
	opsPerTxn  int
	// readFraction overrides the workload's read probability (0 = the
	// paper's 0.5); batchReads issues each transaction's consecutive reads
	// as one Tx.ReadMulti round trip.
	readFraction float64
	batchReads   bool
	// scanFraction makes that fraction of operations ordered range scans of
	// up to maxScanLen rows each (ycsb Workload E); zipfian switches the key
	// distribution to the skewed draw scan workloads pair with. preload seeds
	// that many attribute rows in one transaction before the threads start,
	// so a scan-heavy run pages a populated keyspace from its first scan.
	scanFraction float64
	maxScanLen   int
	zipfian      bool
	preload      int
	interval     time.Duration // unscaled per-thread pacing; 0 = paperInterval
	// submitWindow / submitCombine tune the master submit pipeline
	// (0 = core defaults; only meaningful for core.Master runs).
	submitWindow  int
	submitCombine int
	// threadDCs optionally places each thread at a specific datacenter;
	// default puts every thread at the topology's first datacenter (a
	// single YCSB instance co-located with one node).
	threadDCs []string
	// observe, when set, is called with the cluster just before the
	// measured phase: a test's hook for watching the run's traffic.
	observe func(*cluster.Cluster)
}

// runResult is one experiment run's outcome.
type runResult struct {
	spec       runSpec
	summary    stats.Summary
	samples    []stats.Sample
	violations []history.Violation
	msgs       network.CounterSnapshot
	paxosPerTx float64 // Paxos messages per read/write transaction
	wall       time.Duration
}

// run executes one experiment configuration.
func run(o Options, rs runSpec) (runResult, error) {
	o = o.withDefaults()
	topo, err := cluster.PaperTopology(rs.topology)
	if err != nil {
		return runResult{}, err
	}
	timeout := time.Duration(float64(paperTimeout) * o.Scale)
	c := cluster.New(cluster.Config{
		Topology:      topo,
		NetConfig:     network.SimConfig{Seed: o.Seed, Scale: o.Scale, Jitter: 0.1},
		Timeout:       timeout,
		SubmitWindow:  rs.submitWindow,
		SubmitCombine: rs.submitCombine,
	})
	defer c.Close()

	interval := rs.interval
	if interval == 0 {
		interval = paperInterval
	}
	interval = time.Duration(float64(interval) * o.Scale)

	group := "entity-group"
	w := ycsb.Workload{
		Group:        group,
		Attributes:   rs.attributes,
		OpsPerTxn:    rs.opsPerTxn,
		ReadFraction: rs.readFraction,
		ScanFraction: rs.scanFraction,
		MaxScanLen:   rs.maxScanLen,
	}
	if rs.zipfian {
		w.Distribution = ycsb.Zipfian
	}

	rec := &history.Recorder{}
	if rs.preload > 0 {
		cfg := core.Config{
			Protocol: rs.protocol, Timeout: timeout,
			BackoffBase: timeout / 40, Seed: o.Seed + 4242,
		}
		if rs.cfgEdit != nil {
			rs.cfgEdit(&cfg)
		}
		cl := c.NewClient(topo.DCs()[0], cfg)
		// Record the preload commit too, so the serializability battery sees
		// every writer of the logs it checks.
		cl.OnCommit = func(pos int64, txn core.CommittedTxn) {
			rec.Record(history.Commit{
				ID: txn.ID, Group: txn.Group, Origin: txn.Origin,
				ReadPos: txn.ReadPos, Pos: pos,
				Reads: txn.Reads, Writes: txn.Writes,
			})
		}
		tx, err := cl.Begin(context.Background(), group)
		if err != nil {
			return runResult{}, fmt.Errorf("bench: preload begin: %w", err)
		}
		for i := 0; i < rs.preload; i++ {
			tx.Write(ycsb.AttrName(i), fmt.Sprintf("seed-%d", i))
		}
		if cres, err := tx.Commit(context.Background()); err != nil || cres.Status != stats.Committed {
			return runResult{}, fmt.Errorf("bench: preload commit: status %v err %v", cres.Status, err)
		}
	}

	perThread := o.Txns / o.Threads
	extra := o.Txns % o.Threads
	var threads []ycsb.Thread
	for i := 0; i < o.Threads; i++ {
		dc := topo.DCs()[0]
		if len(rs.threadDCs) > 0 {
			dc = rs.threadDCs[i%len(rs.threadDCs)]
		}
		cfg := core.Config{
			Protocol:    rs.protocol,
			Timeout:     timeout,
			BackoffBase: timeout / 40,
			Seed:        o.Seed + int64(i) + 1,
		}
		if rs.cfgEdit != nil {
			rs.cfgEdit(&cfg)
		}
		count := perThread
		if i < extra {
			count++
		}
		threads = append(threads, ycsb.Thread{
			Client:     c.NewClient(dc, cfg),
			Gen:        ycsb.NewGenerator(w, o.Seed+int64(i)*1000+7),
			Count:      count,
			Interval:   interval,
			StartDelay: time.Duration(i) * interval / time.Duration(o.Threads),
			BatchReads: rs.batchReads,
		})
	}

	if rs.observe != nil {
		rs.observe(c)
	}
	c.Sim().ResetCounters()
	start := time.Now()
	runner := &ycsb.Runner{Threads: threads, Recorder: rec}
	samples := runner.Run(context.Background())
	wall := time.Since(start)

	// Quiesce every datacenter and run the serializability battery.
	ctx := context.Background()
	for _, dc := range c.DCs() {
		if err := c.Service(dc).Recover(ctx, group); err != nil {
			return runResult{}, fmt.Errorf("recover %s: %w", dc, err)
		}
	}
	logs := map[string]map[int64]wal.Entry{}
	for _, dc := range c.DCs() {
		logs[dc] = c.Service(dc).LogSnapshot(group)
	}
	violations := history.Check(logs, rec.Commits())

	sum := stats.Summarize(samples)
	msgs := c.Sim().Counters()
	res := runResult{
		spec:       rs,
		summary:    sum,
		samples:    samples,
		violations: violations,
		msgs:       msgs,
		wall:       wall,
	}
	if sum.Total > 0 {
		res.paxosPerTx = float64(msgs.PaxosSent()) / float64(sum.Total)
	}
	o.Verbose("  %-28s %s (%.1fs wall, %.1f paxos msgs/txn, %d violations)",
		rs.name, sum.String(), wall.Seconds(), res.paxosPerTx, len(violations))
	return res, nil
}

// unscale converts a scaled duration back to paper-equivalent milliseconds.
func unscale(d time.Duration, scale float64) float64 {
	return float64(d) / float64(time.Millisecond) / scale
}

// fmtMS renders a scaled duration as unscaled milliseconds.
func fmtMS(d time.Duration, scale float64) string {
	return fmt.Sprintf("%.0f", unscale(d, scale))
}

// roundCommits renders per-round commit counts as "r0:280 r1:95 ...".
func roundCommits(sum stats.Summary) string {
	if len(sum.ByRound) == 0 {
		return "-"
	}
	out := ""
	for r, rs := range sum.ByRound {
		if r > 0 {
			out += " "
		}
		out += fmt.Sprintf("r%d:%d", r, rs.Commits)
	}
	return out
}

// violationsCell renders the checker outcome.
func violationsCell(vs []history.Violation) string {
	if len(vs) == 0 {
		return "1SR-ok"
	}
	return fmt.Sprintf("VIOLATIONS:%d", len(vs))
}
