package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/stats"
)

// Experiment is one workload configuration, exported for the module-root
// testing.B benchmarks (bench_test.go) and for programmatic use.
type Experiment struct {
	// Topology in paper notation ("VV", "VVV", "VOC", ...).
	Topology string
	// Protocol selects basic Paxos or Paxos-CP.
	Protocol core.Protocol
	// Attributes in the entity group (default 100).
	Attributes int
	// OpsPerTxn per transaction (default 10).
	OpsPerTxn int
	// LoadFactor divides the paper's 1 s pacing interval (1 = paper rate,
	// 4 = 4x the offered load). 0 means 1.
	LoadFactor int
	// Unpaced issues transactions back to back with no pacing (for
	// throughput-style microbenchmarks).
	Unpaced bool
}

// RunExperiment executes one experiment and returns its summary. It fails
// if the execution violates one-copy serializability.
func RunExperiment(o Options, e Experiment) (stats.Summary, error) {
	if e.Attributes == 0 {
		e.Attributes = 100
	}
	if e.OpsPerTxn == 0 {
		e.OpsPerTxn = 10
	}
	interval := paperInterval
	if e.LoadFactor > 1 {
		interval = paperInterval / time.Duration(e.LoadFactor)
	}
	if e.Unpaced {
		interval = time.Nanosecond // effectively unpaced
	}
	res, err := run(o, runSpec{
		name:       fmt.Sprintf("experiment %s %s", e.Topology, e.Protocol),
		topology:   e.Topology,
		protocol:   e.Protocol,
		attributes: e.Attributes,
		opsPerTxn:  e.OpsPerTxn,
		interval:   interval,
	})
	if err != nil {
		return stats.Summary{}, err
	}
	if len(res.violations) > 0 {
		return res.summary, fmt.Errorf("bench: %d serializability violations, first: %s",
			len(res.violations), res.violations[0])
	}
	return res.summary, nil
}

// BenchResult is one parsed `go test -bench` result line: the benchmark
// name, its iteration count, and every reported metric keyed by unit
// (ns/op, B/op, allocs/op, plus custom metrics like commits/sec).
type BenchResult struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// BenchReport is the machine-readable benchmark summary CI uploads as a
// workflow artifact (BENCH_ci.json) so the performance trajectory is
// tracked per PR.
type BenchReport struct {
	// Context labels the run (e.g. "ci", a commit SHA, a machine name).
	Context string        `json:"context,omitempty"`
	Results []BenchResult `json:"results"`
}

// ParseGoBench reads standard `go test -bench` output and returns one
// BenchResult per benchmark line. Non-benchmark lines (goos/pkg headers,
// PASS/ok trailers, test logs) are ignored; malformed metric pairs are
// skipped rather than failing the parse.
func ParseGoBench(r io.Reader) ([]BenchResult, error) {
	var out []BenchResult
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 3 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := BenchResult{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
		// The remainder is value/unit pairs: "1205174 ns/op 829.8 commits/sec".
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			res.Metrics[fields[i+1]] = v
		}
		out = append(out, res)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("bench: parse go-bench output: %w", err)
	}
	return out, nil
}

// lowerIsBetter reports whether a metric improves by decreasing. Go's
// standard per-op metrics shrink as code gets faster; custom throughput
// metrics (commits/sec, reads/sec, ...) grow.
func lowerIsBetter(unit string) bool {
	switch unit {
	case "ns/op", "B/op", "allocs/op", "ns/read", "binary-bytes", "json-bytes":
		return true
	}
	return strings.HasSuffix(unit, "/op")
}

// Delta is one metric's change between a baseline and a fresh benchmark run.
type Delta struct {
	Name string  `json:"name"`
	Unit string  `json:"unit"`
	Base float64 `json:"base"`
	New  float64 `json:"new"`
	// Ratio is New/Base. Regression reports whether the change exceeds the
	// comparison threshold in the unit's worse direction.
	Ratio      float64 `json:"ratio"`
	Regression bool    `json:"regression"`
}

// CompareReports diffs a fresh report against a baseline: every
// (benchmark, metric) pair present in both is compared, and a change worse
// than threshold (e.g. 0.2 = 20%) in the metric's bad direction is flagged
// as a regression. Names match without the -N suffix go test appends when
// GOMAXPROCS is N > 1 (benchName), so a baseline recorded at one CPU count
// matches a run at another. Benchmarks present on only one side are skipped —
// comparisons survive benchmark additions and removals — but a diff with no
// benchmark on both sides compared nothing, and is an error. Iteration
// counts are ignored (CI smoke runs use -benchtime 1x).
func CompareReports(base, fresh BenchReport, threshold float64) ([]Delta, error) {
	baseline := make(map[string]BenchResult, len(base.Results))
	for _, r := range base.Results {
		baseline[benchName(r.Name)] = r
	}
	var out []Delta
	for _, r := range fresh.Results {
		b, ok := baseline[benchName(r.Name)]
		if !ok {
			continue
		}
		units := make([]string, 0, len(r.Metrics))
		for unit := range r.Metrics {
			if _, ok := b.Metrics[unit]; ok {
				units = append(units, unit)
			}
		}
		sort.Strings(units)
		for _, unit := range units {
			d := Delta{Name: r.Name, Unit: unit, Base: b.Metrics[unit], New: r.Metrics[unit]}
			if d.Base != 0 {
				d.Ratio = d.New / d.Base
				if lowerIsBetter(unit) {
					d.Regression = d.Ratio > 1+threshold
				} else {
					d.Regression = d.Ratio < 1-threshold
				}
			}
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("bench: no benchmark metric in both reports (%d baseline, %d fresh results)",
			len(base.Results), len(fresh.Results))
	}
	return out, nil
}

// benchName is name without the "-N" GOMAXPROCS suffix: go test reports
// BenchmarkX/sub at GOMAXPROCS 1 and BenchmarkX/sub-2 at 2. (So no
// benchmark may end its own name in "-<digits>".)
func benchName(name string) string {
	if i := strings.LastIndexByte(name, '-'); i >= 0 && i < len(name)-1 && strings.Trim(name[i+1:], "0123456789") == "" {
		return name[:i]
	}
	return name
}

// WriteCompareReport renders a CompareReports diff as a text table on w and
// returns the number of flagged regressions.
func WriteCompareReport(w io.Writer, deltas []Delta) int {
	regressions := 0
	fmt.Fprintf(w, "%-60s %-12s %14s %14s %8s\n", "benchmark", "metric", "baseline", "current", "ratio")
	for _, d := range deltas {
		mark := ""
		if d.Regression {
			mark = "  << REGRESSION"
			regressions++
		}
		fmt.Fprintf(w, "%-60s %-12s %14.2f %14.2f %7.2fx%s\n", d.Name, d.Unit, d.Base, d.New, d.Ratio, mark)
	}
	return regressions
}

// WriteBenchJSON converts `go test -bench` output read from r into the
// BENCH_ci.json report on w.
func WriteBenchJSON(w io.Writer, r io.Reader, context string) error {
	results, err := ParseGoBench(r)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(BenchReport{Context: context, Results: results})
}
