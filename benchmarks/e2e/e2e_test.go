package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"
)

// testConfig runs a workload at 1/100 of its command-line size.
func testConfig(t *testing.T, name string, traced bool) config {
	t.Helper()
	s, ok := specByName(name)
	if !ok {
		t.Fatalf("unknown workload %q", name)
	}
	return config{spec: s, seed: 7, seconds: defaultSeconds, scale: 0.01, traced: traced, outDir: t.TempDir()}
}

// checkReport asserts what every run must satisfy whatever the machine's
// speed: the gate passed, nothing failed, every metric of the result line
// is there, finite and in range. No timing is compared with anything.
func checkReport(t *testing.T, rep *report, log *bytes.Buffer) {
	t.Helper()
	for _, p := range rep.problems {
		t.Errorf("run is not correct: %s", p)
	}
	if rep.attempted < 1 || rep.failed != 0 {
		t.Errorf("attempted %d ops, %d failed", rep.attempted, rep.failed)
	}
	for _, d := range rep.defs {
		v, ok := rep.metrics.val[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("metric %s: missing or not finite (%v)", d.name, v)
		}
		if strings.HasSuffix(d.name, "_frac") && d.name != "trace.overhead_frac" && (v < 0 || v > 1) {
			t.Errorf("metric %s = %v is not a fraction", d.name, v)
		}
	}
	if t.Failed() {
		t.Logf("run output:\n%s", log)
	}
}

func TestWorkloadsUntraced(t *testing.T) {
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			var log bytes.Buffer
			rep, err := run(context.Background(), testConfig(t, s.name, false), &log)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, &log)
			for _, d := range endToEnd {
				if rep.metrics.val[d.name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, want above 0", d.name, rep.metrics.val[d.name])
				}
			}
			if v := rep.metrics.val["history.violations"]; v != 0 {
				t.Errorf("history.violations = %v", v)
			}
			if s.durable && rep.metrics.val["disk.recover_rows"] == 0 {
				t.Error("the crash check recovered no rows")
			}
		})
	}
}

// TestWorkloadsTraced runs the two workloads that between them use every
// decorator and the basic-Paxos baseline.
func TestWorkloadsTraced(t *testing.T) {
	for _, name := range []string{"commit-durable", "wan-contended"} {
		t.Run(name, func(t *testing.T) {
			var log bytes.Buffer
			cfg := testConfig(t, name, true)
			rep, err := run(context.Background(), cfg, &log)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, &log)
			if !strings.Contains(log.String(), "unaccounted") {
				t.Errorf("no stage table in the output:\n%s", &log)
			}
			if st, err := os.Stat(cfg.outDir + "/spans.json"); err != nil || st.Size() == 0 {
				t.Errorf("spans.json not written: %v", err)
			}
			want := map[string]string{"commit-durable": "disk.fsync_ms", "wan-contended": "core.basic.commit_frac"}[name]
			if rep.metrics.val[want] <= 0 {
				t.Errorf("%s = %v, want above 0", want, rep.metrics.val[want])
			}
		})
	}
}

// TestInputsAreAFunctionOfTheSeed pins that the op lists depend on the seed
// and on nothing else — not on the clock, not on a previous call.
func TestInputsAreAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		a := generate(s, 42, 30, 300)
		time.Sleep(2 * time.Millisecond)
		b := generate(s, 42, 30, 300)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generators with seed 42 disagree", s.name)
		}
		if c := generate(s, 43, 30, 300); reflect.DeepEqual(a.measured, c.measured) {
			t.Errorf("%s: seeds 42 and 43 give the same measured list", s.name)
		}
		if len(a.warmup) != 30 || len(a.measured) != 300 {
			t.Errorf("%s: got %d + %d ops, want 30 + 300", s.name, len(a.warmup), len(a.measured))
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program in step: the
// same workloads, the same metrics with the same units, the same run length.
func TestBenchmarkJSONMatches(t *testing.T) {
	bf, err := readBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, -seconds defaults to %d", bf.RunSeconds, defaultSeconds)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if s, _ := specByName(w.Name); w.Why != s.why {
			t.Errorf("%s: why %q, the program says %q", w.Name, w.Why, s.why)
		}
	}
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("workloads %q, the program has %q", got, workloadNames())
	}
	var e2e, layers []metricDef
	for _, e := range bf.EndToEnd {
		e2e = append(e2e, metricDef{e.Name, e.Unit})
		if e.Bound <= 0 || e.Bound > 0.25 || (e.Better != "lower" && e.Better != "higher") {
			t.Errorf("%s: bound %v better %q", e.Name, e.Bound, e.Better)
		}
	}
	for _, l := range bf.PerLayer {
		layers = append(layers, metricDef{l.Name, l.Unit})
	}
	if !reflect.DeepEqual(e2e, endToEnd) {
		t.Errorf("end_to_end is %v, the program prints %v", e2e, endToEnd)
	}
	if !reflect.DeepEqual(layers, perLayer) {
		t.Errorf("per_layer is %v, the program prints %v", layers, perLayer)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles = %v, %v, want 1, 4", q1, q3)
	}
}

// TestStageTableSelfTime checks the table on a hand-made commit: each
// instant goes to the deepest span covering it and the rows add up to the
// op's latency.
func TestStageTableSelfTime(t *testing.T) {
	us := func(n int64) int64 { return n * 1000 }
	spans := []span{
		{ID: 1, Op: 1, Name: "op.commit", At: "c", Start: 0, End: us(100), OK: true},
		{ID: 2, Op: 1, Parent: 1, Name: "send.submit", At: "c", Start: us(10), End: us(90)},
		{ID: 3, Op: 1, Parent: 2, Name: "handle.submit", At: "V1", Start: us(20), End: us(80), Group: "g0", Pos: 5, OK: true},
		// The master's accept round: two parallel sends, one slower.
		{ID: 4, Name: "send.accept", At: "V1", Start: us(30), End: us(50), Group: "g0", Pos: 5},
		{ID: 5, Name: "send.accept", At: "V1", Start: us(30), End: us(60), Group: "g0", Pos: 5},
		{ID: 6, Parent: 5, Name: "handle.accept", At: "V2", Start: us(35), End: us(55), Group: "g0", Pos: 5},
		{ID: 7, Name: "engine.sync", At: "V2", Start: us(40), End: us(50)},
		{ID: 8, Name: "fs.fsync", At: "V2", Start: us(42), End: us(48)},
		// Another op's file work on another replica must not be charged.
		{ID: 9, Name: "fs.fsync", At: "V3", Start: us(0), End: us(100)},
	}
	rows, total, n := stageTable(spans)
	if n != 1 || math.Abs(total-100) > 1e-9 {
		t.Fatalf("n = %d, total = %v us, want 1 op of 100 us", n, total)
	}
	want := map[string]float64{
		"core.client":            20, // 0-10, 90-100
		"network.client.submit":  20, // 10-20, 80-90
		"core.handle.submit":     30, // 20-30, 60-80
		"network.replica.accept": 10, // 30-35, 55-60
		"core.handle.accept":     10, // 35-40, 50-55
		"kvstore.engine.sync":    4,  // 40-42, 48-50
		"disk.fs.fsync":          6,  // 42-48
	}
	got := make(map[string]float64)
	for _, r := range rows {
		got[r.Stage] = r.MeanUS
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stage table = %v, want %v", got, want)
	}
}
