package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sampleBenchOutput = `goos: linux
goarch: amd64
pkg: paxoscp
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSubmitThroughput/window=1-8         	     200	   1205174 ns/op	       829.8 commits/sec
BenchmarkSubmitThroughput/window=8-8         	     200	    404756 ns/op	      2471 commits/sec
BenchmarkWALEncode-8   	  506980	      2188 ns/op	    1288 B/op	      18 allocs/op
--- BENCH: BenchmarkSomething
    some test log line
PASS
ok  	paxoscp	0.343s
`

func TestParseGoBench(t *testing.T) {
	results, err := ParseGoBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("parsed %d results, want 3: %+v", len(results), results)
	}
	first := results[0]
	if first.Name != "BenchmarkSubmitThroughput/window=1-8" || first.Iters != 200 {
		t.Fatalf("first result = %+v", first)
	}
	if got := first.Metrics["commits/sec"]; got != 829.8 {
		t.Fatalf("commits/sec = %v, want 829.8", got)
	}
	if got := first.Metrics["ns/op"]; got != 1205174 {
		t.Fatalf("ns/op = %v, want 1205174", got)
	}
	wal := results[2]
	if wal.Metrics["B/op"] != 1288 || wal.Metrics["allocs/op"] != 18 {
		t.Fatalf("wal metrics = %+v", wal.Metrics)
	}
}

func TestParseGoBenchEmptyAndGarbage(t *testing.T) {
	results, err := ParseGoBench(strings.NewReader("FAIL\nBenchmarkBroken notanumber ns/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 {
		t.Fatalf("garbage parsed as %+v", results)
	}
}

func TestWriteBenchJSONRoundTrips(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBenchJSON(&buf, strings.NewReader(sampleBenchOutput), "ci"); err != nil {
		t.Fatal(err)
	}
	var report BenchReport
	if err := json.Unmarshal(buf.Bytes(), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, buf.String())
	}
	if report.Context != "ci" || len(report.Results) != 3 {
		t.Fatalf("report = %+v", report)
	}
}

func TestCompareReports(t *testing.T) {
	base := BenchReport{Results: []BenchResult{
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 100, "commits/sec": 50}},
		{Name: "BenchmarkGone", Metrics: map[string]float64{"ns/op": 10}},
	}}
	fresh := BenchReport{Results: []BenchResult{
		// ns/op up 30% (regression), commits/sec up 30% (improvement).
		{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 130, "commits/sec": 65}},
		{Name: "BenchmarkNew", Metrics: map[string]float64{"ns/op": 5}},
	}}
	deltas, err := CompareReports(base, fresh, 0.20)
	if err != nil || len(deltas) != 2 {
		t.Fatalf("deltas = %+v", deltas)
	}
	byUnit := map[string]Delta{}
	for _, d := range deltas {
		if d.Name != "BenchmarkA" {
			t.Fatalf("unmatched benchmark compared: %+v", d)
		}
		byUnit[d.Unit] = d
	}
	if d := byUnit["ns/op"]; !d.Regression || d.Ratio < 1.29 || d.Ratio > 1.31 {
		t.Fatalf("ns/op delta = %+v", d)
	}
	if d := byUnit["commits/sec"]; d.Regression {
		t.Fatalf("throughput improvement flagged as regression: %+v", d)
	}
}

func TestCompareReportsDirections(t *testing.T) {
	base := BenchReport{Results: []BenchResult{
		{Name: "B", Metrics: map[string]float64{"commits/sec": 100, "allocs/op": 4}},
	}}
	fresh := BenchReport{Results: []BenchResult{
		{Name: "B", Metrics: map[string]float64{"commits/sec": 70, "allocs/op": 3}},
	}}
	deltas, _ := CompareReports(base, fresh, 0.20)
	for _, d := range deltas {
		switch d.Unit {
		case "commits/sec": // 30% drop in throughput: regression
			if !d.Regression {
				t.Fatalf("throughput drop not flagged: %+v", d)
			}
		case "allocs/op": // fewer allocations: improvement
			if d.Regression {
				t.Fatalf("alloc improvement flagged: %+v", d)
			}
		}
	}
	var buf bytes.Buffer
	if n := WriteCompareReport(&buf, deltas); n != 1 {
		t.Fatalf("reported %d regressions, want 1\n%s", n, buf.String())
	}
	if !strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("table missing regression marker:\n%s", buf.String())
	}
}

func TestCompareReportsZeroBaseline(t *testing.T) {
	base := BenchReport{Results: []BenchResult{{Name: "B", Metrics: map[string]float64{"ns/op": 0}}}}
	fresh := BenchReport{Results: []BenchResult{{Name: "B", Metrics: map[string]float64{"ns/op": 10}}}}
	deltas, err := CompareReports(base, fresh, 0.2)
	if err != nil || len(deltas) != 1 || deltas[0].Regression {
		t.Fatalf("zero baseline mishandled: %+v %v", deltas, err)
	}
}

// TestCompareReportsIgnoresProcsSuffix: go test names a benchmark run at
// GOMAXPROCS N > 1 with a -N suffix, and a baseline recorded without one
// must still match it.
func TestCompareReportsIgnoresProcsSuffix(t *testing.T) {
	results, err := ParseGoBench(strings.NewReader(sampleBenchOutput))
	if err != nil {
		t.Fatal(err)
	}
	base := BenchReport{Results: []BenchResult{
		{Name: "BenchmarkSubmitThroughput/window=1", Metrics: map[string]float64{"ns/op": 1205174}},
		{Name: "BenchmarkWALEncode", Metrics: map[string]float64{"allocs/op": 18}},
	}}
	deltas, err := CompareReports(base, BenchReport{Results: results}, 0.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 || deltas[0].Name != "BenchmarkSubmitThroughput/window=1-8" || deltas[1].Name != "BenchmarkWALEncode-8" {
		t.Fatalf("suffixed names not matched to the baseline: %+v", deltas)
	}
	for name, want := range map[string]string{
		"BenchmarkReadThroughput/udp/multi-2": "BenchmarkReadThroughput/udp/multi",
		"BenchmarkReadThroughput/udp/multi":   "BenchmarkReadThroughput/udp/multi",
		"BenchmarkWindow/size=8-":             "BenchmarkWindow/size=8-",
		"BenchmarkX/read-only":                "BenchmarkX/read-only",
	} {
		if got := benchName(name); got != want {
			t.Errorf("benchName(%q) = %q, want %q", name, got, want)
		}
	}
}

// TestCompareReportsNothingInCommon: a diff of reports that share no
// benchmark compared nothing, and says so with an error instead of an empty
// table that passes the gate.
func TestCompareReportsNothingInCommon(t *testing.T) {
	base := BenchReport{Results: []BenchResult{{Name: "BenchmarkA", Metrics: map[string]float64{"ns/op": 1}}}}
	fresh := BenchReport{Results: []BenchResult{{Name: "BenchmarkB", Metrics: map[string]float64{"ns/op": 1}}}}
	if deltas, err := CompareReports(base, fresh, 0.2); err == nil {
		t.Fatalf("disjoint reports compared without an error: %+v", deltas)
	}
	// A benchmark on both sides with no metric in common compares nothing too.
	fresh.Results[0].Name, fresh.Results[0].Metrics = "BenchmarkA-4", map[string]float64{"B/op": 1}
	if deltas, err := CompareReports(base, fresh, 0.2); err == nil {
		t.Fatalf("reports with no metric in common compared without an error: %+v", deltas)
	}
}
