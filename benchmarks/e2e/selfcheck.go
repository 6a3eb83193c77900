package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the self-check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	return b, json.Unmarshal(raw, &b)
}

// quartiles returns the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) gives them (the "exclusive" method): the
// driver computes its spread that way.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(3)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// selfCheck is the benchmark measuring its own steadiness the way the
// driver will: two sets of runs of the same binary, each workload `runs`
// times per set with another seed each time, the sets in opposite workload
// order. Per workload and end-to-end metric it prints both medians, how
// much worse the second is, the spread (interquartile range over median) of
// each set, the largest deviation of any run from its set's median, and the
// bound from BENCHMARK.json. A spread (setup_s excepted) or a worsening
// above the bound fails the check.
func selfCheck(runs, seconds int, noisePath string) error {
	bf, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("selfcheck runs from the repository root: %w", err)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	type key struct{ workload, metric string }
	values := [2]map[key][]float64{{}, {}}
	gcCycles := make(map[string][]float64)
	for set := 0; set < 2; set++ {
		order := append([]spec(nil), specs...)
		if set == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, s := range order {
			for r := 0; r < runs; r++ {
				seed := 100*set + r + 1
				res, table, err := runChild(exe, s.name, seed, seconds)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", s.name, seed, err)
				}
				for name, mv := range res.Metrics {
					values[set][key{s.name, name}] = append(values[set][key{s.name, name}], mv.Value)
				}
				gcCycles[s.name] = append(gcCycles[s.name], table["runtime.gc_cycles"])
				fmt.Printf("set %d %-15s seed %-4d throughput %10.1f ops/s  commit_p50 %8.4f ms  calib %6.2f ms  gc %3.0f\n",
					set+1, s.name, seed, res.Metrics["throughput_ops_s"].Value, res.Metrics["commit_p50_ms"].Value,
					table["runtime.calib_ms"], table["runtime.gc_cycles"])
			}
		}
	}

	var out strings.Builder
	fmt.Fprintf(&out, "# Run-to-run noise of `benchmarks/e2e`\n\n")
	fmt.Fprintf(&out, "Written by `e2e -selfcheck -runs %d -seconds %d` on %d cores, %s. Two sets of runs of one\n", runs, seconds, runtime.NumCPU(), runtime.Version())
	fmt.Fprintf(&out, "binary, each workload %d times per set with another seed each time, the sets in opposite\n", runs)
	fmt.Fprintf(&out, "workload order. `spread` is the interquartile range over the median, as the driver computes\n")
	fmt.Fprintf(&out, "it; `worse` is how much worse the second set's median is than the first's; `max dev` is the\n")
	fmt.Fprintf(&out, "largest deviation of any run from its set's median. A bound holds when both spreads (except\n")
	fmt.Fprintf(&out, "`setup_s`'s) and `worse` stay within it.\n\n")
	fmt.Fprintf(&out, "| workload | metric | median 1 | median 2 | worse | spread 1 | spread 2 | max dev | bound | holds |\n")
	fmt.Fprintf(&out, "|---|---|---|---|---|---|---|---|---|---|\n")
	failed := 0
	for _, s := range specs {
		for _, e := range bf.EndToEnd {
			a, b := values[0][key{s.name, e.Name}], values[1][key{s.name, e.Name}]
			if len(a) == 0 || len(b) == 0 {
				return fmt.Errorf("%s did not report %s", s.name, e.Name)
			}
			m1, m2 := median(a), median(b)
			worse := (m2 - m1) / m1
			if e.Better == "higher" {
				worse = -worse
			}
			var spread [2]float64
			maxDev := 0.0
			for i, v := range [2][]float64{a, b} {
				q1, q3 := quartiles(v)
				spread[i] = (q3 - q1) / median(v)
				for _, x := range v {
					maxDev = math.Max(maxDev, math.Abs(x-median(v))/median(v))
				}
			}
			holds := worse <= e.Bound && (e.Name == "setup_s" || math.Max(spread[0], spread[1]) <= e.Bound)
			verdict := "yes"
			if !holds {
				verdict = "NO"
				failed++
			}
			fmt.Fprintf(&out, "| %s | %s | %.4f | %.4f | %+.1f%% | %.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				s.name, e.Name, m1, m2, 100*worse, 100*spread[0], 100*spread[1], 100*maxDev, 100*e.Bound, verdict)
		}
	}
	fmt.Fprintf(&out, "\n`runtime.gc_cycles` of the measured phase, every run in order:\n\n")
	for _, s := range specs {
		fmt.Fprintf(&out, "- %s: %v\n", s.name, gcCycles[s.name])
	}
	fmt.Print(out.String())
	if noisePath != "" {
		if err := os.WriteFile(noisePath, []byte(out.String()), 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d metrics did not hold their bound", failed)
	}
	return nil
}

// runChild runs one untraced workload in a process of its own and returns
// its result line and the values of the metric table it printed.
func runChild(exe, workload string, seed, seconds int) (resultLine, map[string]float64, error) {
	var res resultLine
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.Itoa(seed), "-seconds", strconv.Itoa(seconds), "-trace", "0")
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
	if err != nil {
		return res, nil, fmt.Errorf("%w\n%s", err, stdout)
	}
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return res, nil, fmt.Errorf("result line: %w", err)
	}
	table := make(map[string]float64)
	for _, l := range lines {
		if f := strings.Fields(string(l)); len(f) >= 3 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				table[f[0]] = v
			}
		}
	}
	return res, table, nil
}
