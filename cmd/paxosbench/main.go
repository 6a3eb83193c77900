// Command paxosbench regenerates the figures of the paper's evaluation
// (§6): it runs the chosen experiment against the simulated multi-datacenter
// cluster and prints the same rows/series the paper plots.
//
// Usage:
//
//	paxosbench -fig 4a            # Figure 4 (commit counts and latency)
//	paxosbench -fig 6 -txns 500   # Figure 6 at full paper scale
//	paxosbench -fig all -scale 0.02
//	paxosbench -benchjson bench.out -o BENCH_ci.json   # go-bench -> JSON report
//	paxosbench -compare BENCH_6.json -against BENCH_ci.json   # regression diff
//	paxosbench -pairs 10 -parent HEAD -o BENCH_17.json        # make bench-pairs
//
// Figures: 4a, 4b, 5a, 5b, 6, 7, 8, ablation, promo, msgs, leader,
// pipeline, reads, scans, failover, avail, shards, saturation, durability,
// migration, all. (4a/4b and 5a/5b run the same experiment; both tables
// print.)
//
// -benchjson converts `go test -bench` output (a file, or "-" for stdin)
// into the machine-readable BENCH_ci.json report CI uploads as an artifact.
// -compare diffs two such reports and flags metrics that moved more than
// -threshold (default 20%) in the wrong direction, matching benchmark names
// without go test's -N GOMAXPROCS suffix; it exits zero unless -strict is
// set, so CI can surface the diff without blocking. Under -strict a diff
// that compared nothing — no benchmark in both reports — fails too.
//
// -pairs runs the end-to-end benchmark BENCHMARK.json declares on -parent
// and on the working tree in alternating pairs and merges the summary into
// the -o report (pairs.go; `make bench-pairs`).
//
// Latencies are simulated at -scale times real time and reported scaled
// back to paper-equivalent milliseconds.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"paxoscp/internal/bench"
)

func main() {
	var (
		fig       = flag.String("fig", "all", "figure to regenerate: 4a 4b 5a 5b 6 7 8 ablation promo msgs leader pipeline reads scans failover avail shards saturation durability migration all")
		scale     = flag.Float64("scale", 1.0/15, "latency scale factor (1.0 = paper wall-clock)")
		txns      = flag.Int("txns", 500, "transactions per experiment (paper: 500)")
		threads   = flag.Int("threads", 4, "concurrent workload threads (paper: 4)")
		seed      = flag.Int64("seed", 42, "random seed")
		quiet     = flag.Bool("q", false, "suppress progress output")
		benchJSON = flag.String("benchjson", "", "convert `go test -bench` output (file, or - for stdin) to a JSON report and exit")
		out       = flag.String("o", "BENCH_ci.json", "output path for -benchjson and -pairs")
		benchCtx  = flag.String("context", "ci", "context label recorded in the -benchjson report")
		compare   = flag.String("compare", "", "baseline JSON report to diff -against (exit 0 unless -strict)")
		against   = flag.String("against", "BENCH_ci.json", "fresh JSON report compared to the -compare baseline")
		threshold = flag.Float64("threshold", 0.20, "relative change flagged as a regression by -compare")
		strict    = flag.Bool("strict", false, "exit 1 when -compare finds regressions or compares nothing")
		pairs     = flag.Int("pairs", 0, "run this many alternating parent/change pairs of benchmarks/run.sh per workload, merge the summary into -o, and exit")
		parent    = flag.String("parent", "", "-pairs: git ref of the parent commit")
		workloads = flag.String("workloads", "commit-mem commit-durable read-scan wan-contended", "-pairs: workloads to run, space separated")
		traced    = flag.Bool("trace", false, "-pairs: traced runs (per-layer metrics) instead of untraced ones")
	)
	flag.Parse()

	if *pairs > 0 {
		if err := runPairs(*parent, *pairs, strings.Fields(*workloads), *traced, *out); err != nil {
			fmt.Fprintf(os.Stderr, "paxosbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *benchJSON != "" {
		if err := writeBenchJSON(*benchJSON, *out, *benchCtx); err != nil {
			fmt.Fprintf(os.Stderr, "paxosbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *compare != "" {
		regressions, err := compareReports(*compare, *against, *threshold)
		if errors.Is(err, errNothingCompared) && !*strict {
			fmt.Println(err)
			return
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "paxosbench: %v\n", err)
			os.Exit(1)
		}
		if regressions > 0 {
			fmt.Printf("\n%d metric(s) regressed more than %.0f%% vs %s\n", regressions, *threshold*100, *compare)
			if *strict {
				os.Exit(1)
			}
		} else {
			fmt.Printf("\nno regressions beyond %.0f%% vs %s\n", *threshold*100, *compare)
		}
		return
	}

	opts := bench.Options{Scale: *scale, Txns: *txns, Threads: *threads, Seed: *seed}
	if !*quiet {
		opts.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	type experiment struct {
		names []string
		run   func(bench.Options) ([]bench.Table, error)
	}
	experiments := []experiment{
		{[]string{"4", "4a", "4b"}, bench.Fig4},
		{[]string{"5", "5a", "5b"}, bench.Fig5},
		{[]string{"6"}, bench.Fig6},
		{[]string{"7"}, bench.Fig7},
		{[]string{"8"}, bench.Fig8},
		{[]string{"ablation"}, bench.Ablation},
		{[]string{"promo"}, bench.PromotionCap},
		{[]string{"msgs"}, bench.MessageComplexity},
		{[]string{"leader"}, bench.LeaderComparison},
		{[]string{"pipeline"}, bench.SubmitPipeline},
		{[]string{"reads"}, bench.Reads},
		{[]string{"scans"}, bench.Scans},
		{[]string{"failover"}, bench.Failover},
		{[]string{"avail"}, bench.Availability},
		{[]string{"shards"}, bench.Shards},
		{[]string{"saturation", "sat"}, bench.Saturation},
		{[]string{"durability", "dur"}, bench.Durability},
		{[]string{"migration", "mig"}, bench.Migration},
	}

	want := strings.ToLower(*fig)
	matched := false
	start := time.Now()
	for _, e := range experiments {
		selected := want == "all"
		for _, n := range e.names {
			if n == want {
				selected = true
			}
		}
		if !selected {
			continue
		}
		matched = true
		tables, err := e.run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "paxosbench: %v\n", err)
			os.Exit(1)
		}
		for _, t := range tables {
			t.Render(os.Stdout)
		}
	}
	if !matched {
		fmt.Fprintf(os.Stderr, "paxosbench: unknown figure %q\n", *fig)
		flag.Usage()
		os.Exit(2)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "\ntotal wall time: %.1fs\n", time.Since(start).Seconds())
	}
}

// compareReports diffs the fresh report against the baseline and prints the
// delta table; it returns the number of regressions beyond threshold.
func compareReports(basePath, freshPath string, threshold float64) (int, error) {
	load := func(path string) (bench.BenchReport, error) {
		var r bench.BenchReport
		data, err := os.ReadFile(path)
		if err != nil {
			return r, err
		}
		if err := json.Unmarshal(data, &r); err != nil {
			return r, fmt.Errorf("%s: %w", path, err)
		}
		return r, nil
	}
	base, err := load(basePath)
	if err != nil {
		return 0, err
	}
	fresh, err := load(freshPath)
	if err != nil {
		return 0, err
	}
	deltas, err := bench.CompareReports(base, fresh, threshold)
	if err != nil {
		return 0, fmt.Errorf("%w between %s and %s: %v", errNothingCompared, basePath, freshPath, err)
	}
	return bench.WriteCompareReport(os.Stdout, deltas), nil
}

// errNothingCompared marks a diff of two reports that share no benchmark: it
// says nothing, so it fails the gate under -strict and is only printed
// without it.
var errNothingCompared = errors.New("nothing compared")

// writeBenchJSON converts go-bench output at inPath ("-" = stdin) into the
// JSON benchmark report at outPath.
func writeBenchJSON(inPath, outPath, context string) error {
	in := os.Stdin
	if inPath != "-" {
		f, err := os.Open(inPath)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	if err := bench.WriteBenchJSON(f, in, context); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
