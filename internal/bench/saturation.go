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

// Saturation measures overload behavior under admission control (DESIGN.md
// §13): one transaction group whose master pipeline is tightly bounded
// (window 2x2, as in the shards figure) and whose submit queue admits at
// most saturationQueue waiters, driven by an increasing number of unpaced
// threads — from near capacity to several times over it.
//
// The figure's claim: beyond saturation, committed throughput plateaus at
// the pipeline's capacity instead of collapsing, and commit latency (p99)
// stays bounded instead of growing with the offered load, because the excess
// is refused fast — the retryable network.VerdictOverloaded refusal costs one round
// trip and no pipeline state — rather than queueing without bound behind the
// replication window. Rejected transactions retry with backoff (the
// well-behaved client response), so the run still measures time-to-commit.
// Every run ends with the quiesce-aware serializability check
// (history.CheckQuiesced at the maximum applied watermark).
func Saturation(o Options) ([]Table, error) {
	o = o.withDefaults()
	t := Table{
		Title: "Saturation: offered load vs committed throughput under admission control (VVV, one group, window 2x2, queue " + fmt.Sprint(saturationQueue) + ")",
		Note:  "unpaced threads oversubscribe one bounded master pipeline; rejects are fast-failed retryable refusals (network.VerdictOverloaded), retried with backoff; p99 over committed transactions",
		Columns: []string{"threads", "commits", "rejects", "aborts+fail", "commits/sec",
			"p99-ms", "check"},
	}
	for _, threads := range []int{4, 8, 16, 32} {
		res, err := saturationRun(o, threads)
		if err != nil {
			return nil, err
		}
		perSec := 0.0
		if res.wall > 0 {
			perSec = float64(res.commits) / res.wall.Seconds()
		}
		t.AddRow(fmt.Sprint(threads), fmt.Sprint(res.commits), fmt.Sprint(res.rejects),
			fmt.Sprint(res.aborts), fmt.Sprintf("%.0f", perSec),
			fmtMS(res.p99, o.Scale), violationsCell(res.violations))
	}
	return []Table{t}, nil
}

// saturationQueue is the figure's submit admission cap: small enough that
// the largest thread count drives the queue to refusal many times per
// second, large enough to keep the bounded pipeline busy through verdict
// gaps.
const saturationQueue = 8

// saturationResult is one offered-load configuration's outcome.
type saturationResult struct {
	commits    int
	rejects    int
	aborts     int
	wall       time.Duration
	p99        time.Duration
	violations []history.Violation
}

// saturationRun executes the workload at one thread count. Exposed to the
// test suite so the plateau assertion and the rendered figure run the same
// experiment.
func saturationRun(o Options, threads int) (saturationResult, error) {
	o = o.withDefaults()
	timeout := time.Duration(float64(paperTimeout) * o.Scale)
	c := cluster.New(cluster.Config{
		Topology:      cluster.MustPaperTopology("VVV"),
		NetConfig:     network.SimConfig{Seed: o.Seed, Scale: o.Scale, Jitter: 0.1},
		Timeout:       timeout,
		SubmitWindow:  shardsWindow,
		SubmitCombine: shardsCombine,
		SubmitQueue:   saturationQueue,
	})
	defer c.Close()
	group := c.Groups()[0]

	w := ycsb.Workload{
		Groups:     c.Groups(),
		Attributes: 256, // wide enough that overload, not data contention, dominates
		OpsPerTxn:  4,
	}
	rec := &history.Recorder{}
	perThread := o.Txns / threads
	if perThread < 1 {
		perThread = 1
	}
	var list []ycsb.Thread
	for i := 0; i < threads; i++ {
		dc := c.DCs()[i%len(c.DCs())]
		cl := c.NewClient(dc, core.Config{
			Protocol:  core.Master,
			MasterFor: c.MasterOf,
			Timeout:   timeout,
			Seed:      o.Seed + int64(i) + 1,
		})
		list = append(list, ycsb.Thread{
			Client:        cl,
			Gen:           ycsb.NewGenerator(w, o.Seed+int64(i)*1000+7),
			Count:         perThread,
			Interval:      time.Nanosecond, // unpaced: offered load = thread count
			RetryAborts:   24,
			RetryRejects:  200,
			RejectBackoff: timeout / 50,
		})
	}

	start := time.Now()
	runner := &ycsb.Runner{Threads: list, Recorder: rec}
	samples := runner.Run(context.Background())
	wall := time.Since(start)

	// Converge the replicas, then check the single group's history with the
	// quiesce-aware checker: trailing decided-but-unlearned positions above
	// every applied watermark are in-flight debt, not violations.
	ctx := context.Background()
	horizon := int64(0)
	logs := map[string]map[int64]wal.Entry{}
	for _, dc := range c.DCs() {
		if err := c.Service(dc).Recover(ctx, group); err != nil {
			return saturationResult{}, fmt.Errorf("bench: saturation recover %s: %w", dc, err)
		}
		if a := c.Service(dc).LastApplied(group); a > horizon {
			horizon = a
		}
		logs[dc] = c.Service(dc).LogSnapshot(group)
	}
	violations := history.CheckQuiesced(logs, horizon, rec.Commits())

	sum := stats.Summarize(samples)
	res := saturationResult{
		commits:    sum.Commits,
		rejects:    sum.Rejects,
		aborts:     sum.Aborts + sum.Failures,
		wall:       wall,
		p99:        sum.AllCommit.P99,
		violations: violations,
	}
	perSec := 0.0
	if wall > 0 {
		perSec = float64(res.commits) / wall.Seconds()
	}
	o.Verbose("  saturation t=%-2d %s (%.2fs wall, %.0f commits/sec, p99 %v, %d violations)",
		threads, sum.String(), wall.Seconds(), perSec, res.p99, len(res.violations))
	return res, nil
}
