package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Alternating pairs (`make bench-pairs`): the end-to-end benchmark
// BENCHMARK.json declares, run on a parent commit and on the working tree in
// alternating order, and summarised the way a perf claim has to be stated —
// per workload and metric, each side's median and quartiles over the pairs,
// the relative change of the medians, and how many pairs the change won.
//
// The parent's files are extracted (git archive) under the git-ignored
// .bench_build/, so both sides build from source in a directory of their own
// exactly as the gate does. Pair i runs seed i on both sides; odd pairs run
// the parent first, even pairs the change first.

// pairSeconds is BENCHMARK.json's run_seconds: the gate's run length.
const pairSeconds = 15

// layerMetrics are the per-layer metrics a report records beside the
// end-to-end ones, where a run printed them: the counts and waits a change to
// the commit path has to explain itself with (messages, rounds, flushes, what
// a handler waits for, how much the master combines), the same for the scan
// path (what a scan costs its client, its handler and the store), what a
// commit leaves behind (rows in the store, bytes in the WAL, rows to recover),
// and what sizes them (CPU, allocations, GC, recovery).
var layerMetrics = []string{
	"network.msgs_per_commit", "paxos.rounds_per_commit", "network.send_us.readpos",
	"disk.fsyncs_per_commit", "disk.sync_wait_us", "disk.fsync_ms",
	"kvstore.rows_per_commit", "disk.bytes_per_commit", "disk.recover_rows",
	"core.handle.submit_us", "core.handle.accept_us", "core.handle.apply_us",
	"core.master.combined_frac",
	"core.client.scan_p50_ms", "core.client.read_p50_ms", "network.send_us.scan", "core.handle.scan_us",
	"kvstore.scan_prefix_us", "kvstore.scan_examined_per_row", "kvstore.read_multi_us",
	"replog.append_apply_us", "replog.follower_lag_pos", "disk.recover_ms",
	"runtime.cpu_us_per_op", "runtime.allocs_per_op", "runtime.gc_cycles", "trace.overhead_frac",
}

// pairRun is what one invocation of the benchmark printed.
type pairRun struct {
	correct bool
	failed  int
	e2e     []string           // the end-to-end metric names, in printed order
	val     map[string]float64 // every metric printed, by name
}

var metricLine = regexp.MustCompile(`^  ([a-z][\w.]*)\s+(-?[0-9.]+(?:e[-+]?[0-9]+)?)\s+\S+`)

// parsePairRun reads the benchmark's output: the two metric tables by name,
// and the result line for correctness and the failed-op count.
func parsePairRun(out []byte) (pairRun, error) {
	r := pairRun{val: make(map[string]float64)}
	section, sawResult := "", false
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20) // the traced result line is one long JSON object
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "end-to-end metrics"):
			section = "e2e"
		case strings.HasPrefix(line, "per-layer metrics"):
			section = "layer"
		case strings.HasPrefix(line, "{"):
			var res struct {
				Correct bool `json:"correct"`
				Failed  int  `json:"failed"`
			}
			if err := json.Unmarshal([]byte(line), &res); err != nil {
				return r, fmt.Errorf("result line: %w", err)
			}
			r.correct, r.failed, sawResult = res.Correct, res.Failed, true
		case section != "":
			m := metricLine.FindStringSubmatch(line)
			if m == nil {
				section = ""
				continue
			}
			v, err := strconv.ParseFloat(m[2], 64)
			if err != nil {
				return r, fmt.Errorf("metric %s: %w", m[1], err)
			}
			r.val[m[1]] = v
			if section == "e2e" {
				r.e2e = append(r.e2e, m[1])
			}
		}
	}
	if !sawResult {
		return r, fmt.Errorf("no result line in the benchmark's output")
	}
	return r, nil
}

// quantile is the inclusive method (Python's statistics.quantiles(...,
// method="inclusive"), numpy's default): linear between the order statistics
// around (n-1)p.
func quantile(sorted []float64, p float64) float64 {
	h := float64(len(sorted)-1) * p
	lo := int(math.Floor(h))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (h-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func round4(v float64) float64 { return math.Round(v*1e4) / 1e4 }

type sideStats struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func statsOf(v []float64) sideStats {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return sideStats{round4(quantile(s, 0.5)), round4(quantile(s, 0.25)), round4(quantile(s, 0.75)), len(s)}
}

// pairMetric is one metric of one workload over all pairs. ChangeWins and
// Ties are present for the metrics BENCHMARK.json gives a direction.
type pairMetric struct {
	Parent     sideStats `json:"parent"`
	Change     sideStats `json:"change"`
	DeltaFrac  *float64  `json:"delta_frac,omitempty"` // absent when the parent's median is 0
	ChangeWins *int      `json:"change_wins,omitempty"`
	Ties       *int      `json:"ties,omitempty"`
}

type pairSection struct {
	Pairs      int                    `json:"pairs"`
	CorrectAll bool                   `json:"correct_all"`
	FailedOps  int                    `json:"failed_ops"`
	Metrics    map[string]*pairMetric `json:"metrics"`
}

// summarise folds the pairs of one workload into a section. better maps a
// metric to "lower" or "higher" where BENCHMARK.json says which is.
func summarise(parent, change []pairRun, better map[string]string) pairSection {
	sec := pairSection{Pairs: len(parent), CorrectAll: true, Metrics: make(map[string]*pairMetric)}
	for i := range parent {
		sec.CorrectAll = sec.CorrectAll && parent[i].correct && change[i].correct
		sec.FailedOps += parent[i].failed + change[i].failed
	}
	names := append([]string(nil), parent[0].e2e...)
	for _, name := range layerMetrics {
		if _, ok := parent[0].val[name]; ok {
			names = append(names, name)
		}
	}
	for _, name := range names {
		var p, c []float64
		wins, ties := 0, 0
		for i := range parent {
			pv, cv := parent[i].val[name], change[i].val[name]
			p, c = append(p, pv), append(c, cv)
			switch {
			case pv == cv:
				ties++
			case (cv < pv) == (better[name] == "lower"):
				wins++
			}
		}
		m := &pairMetric{Parent: statsOf(p), Change: statsOf(c)}
		if m.Parent.Median != 0 {
			d := round4((m.Change.Median - m.Parent.Median) / m.Parent.Median)
			m.DeltaFrac = &d
		}
		if better[name] != "" {
			m.ChangeWins, m.Ties = &wins, &ties
		}
		sec.Metrics[name] = m
	}
	return sec
}

// benchmarkDirections reads which way each metric is better from
// BENCHMARK.json.
func benchmarkDirections() (map[string]string, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	type def struct{ Name, Better string }
	var b struct {
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	better := make(map[string]string)
	for _, d := range append(b.EndToEnd, b.PerLayer...) {
		better[d.Name] = d.Better
	}
	return better, nil
}

// extractParent puts the files of commit sha under dir, replacing what was
// there (an earlier run's tree and its build outputs).
func extractParent(sha, dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("bash", "-c", `set -o pipefail; git archive --format=tar "$0" | tar -x -C "$1"`, sha, dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("git archive %s into %s: %w", sha, dir, err)
	}
	return nil
}

// runPairs runs pairs alternating pairs of every workload and merges the
// summary into the report at outPath: an untraced run fills "untraced", a
// traced one "traced_<workload>"; every other key of an existing report (the
// issue, the claim, notes written by hand) is kept.
func runPairs(parentRef string, pairs int, workloads []string, traced bool, outPath string) error {
	if pairs < 1 || len(workloads) == 0 || parentRef == "" {
		return fmt.Errorf("-pairs needs -parent, at least one pair and at least one workload")
	}
	better, err := benchmarkDirections()
	if err != nil {
		return err
	}
	shaOut, err := exec.Command("git", "rev-parse", "--verify", parentRef+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("git rev-parse %s: %w", parentRef, err)
	}
	sha := strings.TrimSpace(string(shaOut))
	work := filepath.Join(".bench_build", "pairs")
	parentDir := filepath.Join(work, "parent")
	if err := extractParent(sha, parentDir); err != nil {
		return err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	once := func(dir, side, workload string, pair int) (pairRun, error) {
		cmd := exec.Command("bash", "benchmarks/run.sh", "--workload", workload,
			"--seed", strconv.Itoa(pair), "--seconds", strconv.Itoa(pairSeconds), "--trace", trace)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		// An incorrect run exits nonzero and still prints its result line.
		out, runErr := cmd.Output()
		name := fmt.Sprintf("%s-trace%s-%02d-%s.out", workload, trace, pair, side)
		if err := os.WriteFile(filepath.Join(work, name), out, 0o644); err != nil {
			return pairRun{}, err
		}
		r, err := parsePairRun(out)
		if err != nil {
			return r, fmt.Errorf("%s pair %d, %s: %w (exit: %v; output kept in %s)", workload, pair, side, err, runErr, filepath.Join(work, name))
		}
		fmt.Fprintf(os.Stderr, "%s pair %d/%d %-6s correct=%t failed=%d commit_p50_ms=%.4f throughput_ops_s=%.1f\n",
			workload, pair, pairs, side, r.correct, r.failed, r.val["commit_p50_ms"], r.val["throughput_ops_s"])
		return r, nil
	}

	sections := make(map[string]pairSection)
	for _, w := range workloads {
		parent, change := make([]pairRun, pairs), make([]pairRun, pairs)
		for i := 1; i <= pairs; i++ {
			sides := []string{"parent", "change"}
			if i%2 == 0 {
				sides = []string{"change", "parent"}
			}
			for _, side := range sides {
				dir, into := ".", change
				if side == "parent" {
					dir, into = parentDir, parent
				}
				if into[i-1], err = once(dir, side, w, i); err != nil {
					return err
				}
			}
		}
		sections[w] = summarise(parent, change, better)
	}

	report := make(map[string]json.RawMessage)
	if raw, err := os.ReadFile(outPath); err == nil {
		if err := json.Unmarshal(raw, &report); err != nil {
			return fmt.Errorf("%s: %w", outPath, err)
		}
	}
	fields := map[string]any{
		"parent":    sha,
		"command":   "bash benchmarks/run.sh --workload <w> --seed <pair> --seconds 15 --trace <0|1>",
		"procedure": "make bench-pairs: alternating pairs per workload (odd pairs parent first, even pairs change first), pair i run with seed i on both sides, each side built from source in its own directory; medians and inclusive quartiles over the pairs, delta_frac = (change median - parent median) / parent median, change_wins and ties by BENCHMARK.json's direction",
	}
	if traced {
		for w, sec := range sections {
			fields["traced_"+strings.ReplaceAll(w, "-", "_")] = sec
		}
	} else {
		// Workloads this run did not cover keep the section they had.
		untraced := make(map[string]any)
		if raw, ok := report["untraced"]; ok {
			var old map[string]json.RawMessage
			if err := json.Unmarshal(raw, &old); err != nil {
				return fmt.Errorf("%s: untraced: %w", outPath, err)
			}
			for w, sec := range old {
				untraced[w] = sec
			}
		}
		for w, sec := range sections {
			untraced[w] = sec
		}
		fields["untraced"] = untraced
	}
	for key, v := range fields {
		if report[key], err = json.Marshal(v); err != nil {
			return err
		}
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, append(out, '\n'), 0o644)
}
