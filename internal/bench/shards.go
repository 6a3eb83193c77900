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

// Shards measures horizontal scaling across transaction groups (DESIGN.md
// §12): a fixed set of unpaced threads drives a sharded workload over 1..16
// groups on the VVV sim, every group with its own pipelined master — spread
// across the datacenters by the cluster's placement — its own submit window,
// and its own replicated log. The groups of a datacenter share its
// service's apply pool, the simulated transport and
// the datacenter's store.
//
// With one group, all threads contend on one serialization domain: one
// master pipeline, one conflict scope, one log. Sharding divides both the
// pipeline serialization and the data contention by the group count, so
// aggregate commit throughput should scale toward the thread count's
// ceiling. Every run ends with the per-group epoch-aware serializability
// check — a cross-group leak or a lost commit fails the figure, not just a
// test.
func Shards(o Options) ([]Table, error) {
	o = o.withDefaults()
	t := Table{
		Title: "Shards: aggregate commit throughput by transaction group count (VVV, 32 unpaced threads, per-group masters)",
		Note:  "fixed offered load over a bounded per-group pipeline (window 2x2); groups shard pipeline capacity and data contention; speedup is commits/sec vs 1 group",
		Columns: []string{"groups", "commits", "aborts+fail", "commits/sec", "speedup",
			"mean-latency-ms", "check"},
	}
	var base float64
	for _, groups := range []int{1, 2, 4, 8, 16} {
		res, err := shardsRun(o, groups)
		if err != nil {
			return nil, err
		}
		perSec := 0.0
		if res.wall > 0 {
			perSec = float64(res.commits) / res.wall.Seconds()
		}
		if groups == 1 {
			base = perSec
		}
		speedup := "-"
		if base > 0 {
			speedup = fmt.Sprintf("%.2fx", perSec/base)
		}
		t.AddRow(fmt.Sprint(groups), fmt.Sprint(res.commits), fmt.Sprint(res.aborts),
			fmt.Sprintf("%.0f", perSec), speedup,
			fmtMS(res.meanLatency, o.Scale), violationsCell(res.violations))
	}
	return []Table{t}, nil
}

// shardsResult is one group-count configuration's outcome.
type shardsResult struct {
	commits     int
	aborts      int
	wall        time.Duration
	meanLatency time.Duration
	violations  []history.Violation // per-group checks, concatenated
}

// shardsThreads is the fixed offered load of the shards sweep: enough
// concurrent submitters to oversubscribe a single group's pipeline several
// times over, so adding groups shows up as throughput instead of idle
// capacity.
const shardsThreads = 32

// shardsWindow / shardsCombine bound each group's master pipeline for this
// figure: capacity is window x combine transactions in flight per group.
// The bound is what makes the sweep measure *horizontal* scale — with the
// default 8x4 window a single group swallows the whole offered load and
// every configuration measures the same client-side latency floor. Real
// deployments bound the window too (memory, fairness, §8); 2x2 compresses
// the saturation point to the sim's scale.
const (
	shardsWindow  = 2
	shardsCombine = 2
)

// shardsAttrs sizes each group's attribute space. Small enough that the
// single-group baseline also exhibits the §6 contention regime (32 threads
// read-modify-writing one group's attributes), which sharding then divides
// by the group count.
const shardsAttrs = 48

// shardsRun executes the sharded workload over the given group count and
// checks every group's history. Exposed to the test suite so the scaling
// assertion and the rendered figure run the same experiment.
func shardsRun(o Options, groups int) (shardsResult, error) {
	o = o.withDefaults()
	timeout := time.Duration(float64(paperTimeout) * o.Scale)
	c := cluster.New(cluster.Config{
		Topology:      cluster.MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: o.Seed, Scale: o.Scale, Jitter: 0.1},
		Timeout:       timeout,
		SubmitWindow:  shardsWindow,
		SubmitCombine: shardsCombine,
		Groups:        groups,
	})
	defer c.Close()

	w := ycsb.Workload{
		Groups:     c.Groups(),
		Attributes: shardsAttrs,
		OpsPerTxn:  4,
	}
	rec := &history.Recorder{}
	perThread := o.Txns / shardsThreads
	if perThread < 1 {
		perThread = 1
	}
	var threads []ycsb.Thread
	for i := 0; i < shardsThreads; i++ {
		dc := c.DCs()[i%len(c.DCs())]
		cl := c.NewClient(dc, core.Config{
			Protocol:  core.Master,
			MasterFor: c.MasterOf,
			Timeout:   timeout,
			Seed:      o.Seed + int64(i) + 1,
		})
		threads = append(threads, ycsb.Thread{
			Client:   cl,
			Gen:      ycsb.NewGenerator(w, o.Seed+int64(i)*1000+7),
			Count:    perThread,
			Interval: time.Nanosecond, // unpaced
			// Time-to-commit, not time-to-verdict: conflict aborts retry, so
			// the single-group baseline pays for its contention in wall time
			// instead of quietly dropping the conflicted transactions.
			RetryAborts: 24,
		})
	}

	start := time.Now()
	runner := &ycsb.Runner{Threads: threads, Recorder: rec}
	samples := runner.Run(context.Background())
	wall := time.Since(start)

	// Quiesce every (datacenter, group) pair and check each group's history
	// against that group's log — group-local serializability, group by group.
	ctx := context.Background()
	for _, dc := range c.DCs() {
		for _, g := range c.Groups() {
			if err := c.Service(dc).Recover(ctx, g); err != nil {
				return shardsResult{}, fmt.Errorf("bench: shards recover %s/%s: %w", dc, g, err)
			}
		}
	}
	byGroup := history.ByGroup(rec.Commits())
	var violations []history.Violation
	for _, g := range c.Groups() {
		logs := map[string]map[int64]wal.Entry{}
		for _, dc := range c.DCs() {
			logs[dc] = c.Service(dc).LogSnapshot(g)
		}
		violations = append(violations, history.Check(logs, byGroup[g])...)
	}

	sum := stats.Summarize(samples)
	res := shardsResult{
		commits:     sum.Commits,
		aborts:      sum.Aborts + sum.Failures,
		wall:        wall,
		meanLatency: sum.AllCommit.Mean,
		violations:  violations,
	}
	perSec := 0.0
	if wall > 0 {
		perSec = float64(res.commits) / wall.Seconds()
	}
	o.Verbose("  shards g=%-2d %s (%.2fs wall, %.0f commits/sec, %d violations)",
		groups, sum.String(), wall.Seconds(), perSec, len(violations))
	return res, nil
}
