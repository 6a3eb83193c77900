package main

import (
	"encoding/json"
	"testing"
)

const sampleRun = `workload commit-durable seed 1: 135 warm-up + 1350 measured ops
stage table: mean self time per committed transaction
  core.client                              27.2 us    0.2%
end-to-end metrics (untraced run)
  setup_s                                    0.9544 s        (n=3)
  commit_p50_ms                             15.2059 ms       (n=1350)
per-layer metrics
  failed_frac                                0.0000 fraction
  disk.fsyncs_per_commit                     5.0985 count
attempted 1350 ops, failed 2
{"correct":true,"attempted":1350,"failed":2,"metrics":{}}
`

func TestParsePairRun(t *testing.T) {
	r, err := parsePairRun([]byte(sampleRun))
	if err != nil {
		t.Fatal(err)
	}
	if !r.correct || r.failed != 2 {
		t.Fatalf("correct=%t failed=%d, want true, 2", r.correct, r.failed)
	}
	if len(r.e2e) != 2 || r.e2e[0] != "setup_s" || r.e2e[1] != "commit_p50_ms" {
		t.Fatalf("end-to-end metrics = %v", r.e2e)
	}
	if r.val["commit_p50_ms"] != 15.2059 || r.val["disk.fsyncs_per_commit"] != 5.0985 {
		t.Fatalf("values = %v", r.val)
	}
	if _, ok := r.val["core.client"]; ok {
		t.Fatal("a stage-table row was read as a metric")
	}
	if _, err := parsePairRun([]byte("end-to-end metrics\n  setup_s 1.0 s\n")); err == nil {
		t.Fatal("output without a result line accepted")
	}
}

// TestSummarisePairs: medians and inclusive quartiles per side, the change of
// the medians against the parent's, and wins counted by BENCHMARK.json's
// direction with ties counting for neither side.
func TestSummarisePairs(t *testing.T) {
	run := func(p50, fsyncs float64) pairRun {
		return pairRun{correct: true, e2e: []string{"commit_p50_ms"},
			val: map[string]float64{"commit_p50_ms": p50, "disk.fsyncs_per_commit": fsyncs}}
	}
	parent := []pairRun{run(18, 6.5), run(19, 6.5), run(20, 6.5), run(21, 6.5)}
	change := []pairRun{run(15, 5.25), run(16, 5.25), run(20, 5.25), run(22, 5.25)}
	change[3].failed = 1
	sec := summarise(parent, change, map[string]string{"commit_p50_ms": "lower"})
	if sec.Pairs != 4 || !sec.CorrectAll || sec.FailedOps != 1 {
		t.Fatalf("section = %+v", sec)
	}
	m := sec.Metrics["commit_p50_ms"]
	if m.Parent != (sideStats{19.5, 18.75, 20.25, 4}) || m.Change != (sideStats{18, 15.75, 20.5, 4}) {
		t.Fatalf("parent %+v change %+v", m.Parent, m.Change)
	}
	if *m.DeltaFrac != -0.0769 || *m.ChangeWins != 2 || *m.Ties != 1 {
		t.Fatalf("delta %v wins %d ties %d, want -0.0769, 2, 1", *m.DeltaFrac, *m.ChangeWins, *m.Ties)
	}
	layer := sec.Metrics["disk.fsyncs_per_commit"]
	if layer == nil || layer.ChangeWins != nil {
		t.Fatalf("a metric without a direction must be recorded without wins: %+v", layer)
	}
	// What a change to the commit path's messages has to show beside the
	// counts: the readpos sends it removed, the CPU and the combining that
	// followed. A metric the parent's first run did not print is left out.
	for i := range parent {
		for _, side := range [][]pairRun{parent, change} {
			side[i].val["network.send_us.readpos"] = 30
			side[i].val["runtime.cpu_us_per_op"] = 200
			side[i].val["core.master.combined_frac"] = 0.5
		}
	}
	sec = summarise(parent, change, nil)
	for _, name := range []string{"network.send_us.readpos", "runtime.cpu_us_per_op", "core.master.combined_frac"} {
		if m := sec.Metrics[name]; m == nil || m.Parent.N != 4 || m.Parent.Median != m.Change.Median {
			t.Errorf("%s not recorded: %+v", name, m)
		}
	}
	// Where a change to what the store holds per position shows: rows grown
	// and WAL bytes per commit, rows recovered after the crash.
	for i := range parent {
		parent[i].val["kvstore.rows_per_commit"], change[i].val["kvstore.rows_per_commit"] = 1.44, 0.72
		parent[i].val["disk.bytes_per_commit"], change[i].val["disk.bytes_per_commit"] = 2456, 1800
		parent[i].val["disk.recover_rows"], change[i].val["disk.recover_rows"] = 9000, 6000
	}
	lower := map[string]string{"kvstore.rows_per_commit": "lower", "disk.bytes_per_commit": "lower", "disk.recover_rows": "lower"}
	sec = summarise(parent, change, lower)
	for name := range lower {
		if m := sec.Metrics[name]; m == nil || m.DeltaFrac == nil || *m.DeltaFrac >= 0 || *m.ChangeWins != 4 {
			t.Errorf("%s not recorded as a win on every pair: %+v", name, m)
		}
	}
	if sec.Metrics["disk.sync_wait_us"] != nil {
		t.Error("a metric no run printed was recorded")
	}
	if _, err := json.Marshal(sec); err != nil {
		t.Fatal(err)
	}
}
