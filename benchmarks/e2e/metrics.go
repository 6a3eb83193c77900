package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"
)

// metricDef names one reported metric. The two lists below are the contract
// BENCHMARK.json repeats; TestBenchmarkJSONMatches keeps the file and the
// program in step.
type metricDef struct {
	name, unit string
}

// endToEnd lists the gated metrics, printed by every workload of an
// untraced run (-trace 0). None of them can be 0 on any workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_ops_s", "ops/s"},
	{"op_p50_ms", "ms"},
	{"commit_p50_ms", "ms"},
	{"commit_frac", "fraction"},
	{"alloc_kb_per_op", "KB/op"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the ungated metrics of single layers, printed by every
// workload of a traced run (-trace 1). A metric that does not apply to a
// workload (disk.* without a disk, core.cp.* under the Master protocol)
// reads 0 there.
var perLayer = []metricDef{
	{"failed_frac", "fraction"},

	{"network.msgs_per_commit", "count"},
	{"network.bytes_per_commit", "B"},
	{"network.send_us.readpos", "us"},
	{"network.send_us.submit", "us"},
	{"network.send_us.accept", "us"},
	{"network.send_us.apply", "us"},
	{"network.send_us.prepare", "us"},
	{"network.send_us.read", "us"},
	{"network.send_us.scan", "us"},
	{"network.timeout_frac", "fraction"},
	{"network.codec.encode_ns", "ns"},
	{"network.codec.decode_ns", "ns"},
	{"network.udp.echo_us", "us"},

	{"paxos.rounds_per_commit", "count"},
	{"paxos.acceptor.accept_us", "us"},
	{"paxos.acceptor.prepare_us", "us"},

	{"wal.encode_ns", "ns"},
	{"wal.decode_ns", "ns"},
	{"wal.entry_bytes", "B"},

	{"replog.append_apply_us", "us"},
	{"replog.follower_lag_pos", "count"},

	{"kvstore.apply_batch_us", "us"},
	{"kvstore.read_multi_us", "us"},
	{"kvstore.scan_prefix_us", "us"},
	{"kvstore.scan_examined_per_row", "count"},
	{"kvstore.rows_per_commit", "count"},

	{"disk.append_us", "us"},
	{"disk.sync_wait_us", "us"},
	{"disk.fsync_ms", "ms"},
	{"disk.fsync_raw_ms", "ms"},
	{"disk.bytes_per_commit", "B"},
	{"disk.fsyncs_per_commit", "count"},
	{"disk.snapshots", "count"},
	{"disk.recover_ms", "ms"},
	{"disk.recover_rows", "count"},

	{"core.client.begin_us", "us"},
	{"core.client.read_multi_us", "us"},
	{"core.client.scan_us", "us"},
	{"core.client.commit_us", "us"},
	{"core.client.commit_p90_ms", "ms"},
	{"core.client.commit_p99_ms", "ms"},
	{"core.client.read_p50_ms", "ms"},
	{"core.client.read_p99_ms", "ms"},
	{"core.client.scan_p50_ms", "ms"},
	{"core.client.scan_p99_ms", "ms"},
	{"core.handle.submit_us", "us"},
	{"core.handle.accept_us", "us"},
	{"core.handle.apply_us", "us"},
	{"core.handle.read_us", "us"},
	{"core.handle.scan_us", "us"},
	{"core.master.combined_frac", "fraction"},
	{"core.rejected_frac", "fraction"},
	{"core.cp.promoted_frac", "fraction"},
	{"core.cp.combined_frac", "fraction"},
	{"core.cp.rounds_mean", "count"},
	{"core.basic.commit_frac", "fraction"},
	{"core.basic.commit_p50_ms", "ms"},

	{"placement.group_for_ns", "ns"},
	{"placement.groups_per_readmulti", "count"},

	{"history.check_ms", "ms"},
	{"history.violations", "count"},

	{"runtime.cpu_us_per_op", "us"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.calib_ms", "ms"},
	{"trace.overhead_frac", "fraction"},
}

// metricSet holds measured values by metric name, plus the sample count
// behind each timing (0 = not a sampled timing).
type metricSet struct {
	val map[string]float64
	n   map[string]int
}

func newMetricSet() *metricSet {
	return &metricSet{val: make(map[string]float64), n: make(map[string]int)}
}

func (m *metricSet) set(name string, v float64) { m.val[name] = v }

func (m *metricSet) setN(name string, v float64, samples int) {
	m.val[name] = v
	m.n[name] = samples
}

// merge copies every value of o into m.
func (m *metricSet) merge(o *metricSet) {
	for k, v := range o.val {
		m.val[k] = v
	}
	for k, n := range o.n {
		m.n[k] = n
	}
}

// print writes the named metrics as "name value unit (n=samples)" lines.
func (m *metricSet) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		v, ok := m.val[d.name]
		if !ok {
			continue
		}
		if n := m.n[d.name]; n > 0 {
			fmt.Fprintf(w, "  %-34s %14.4f %-8s (n=%d)\n", d.name, v, d.unit, n)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.name, v, d.unit)
		}
	}
}

// check reports the first listed metric that is missing or not finite, and
// for end-to-end metrics (mustBePositive) also one that is not above 0.
func (m *metricSet) check(defs []metricDef, mustBePositive bool) error {
	for _, d := range defs {
		v, ok := m.val[d.name]
		switch {
		case !ok:
			return fmt.Errorf("metric %s was not measured", d.name)
		case math.IsNaN(v) || math.IsInf(v, 0):
			return fmt.Errorf("metric %s is not finite: %v", d.name, v)
		case mustBePositive && v <= 0:
			return fmt.Errorf("metric %s must be above 0, got %v", d.name, v)
		case v < 0 && d.name != "trace.overhead_frac":
			return fmt.Errorf("metric %s is negative: %v", d.name, v)
		}
	}
	return nil
}

// resultLine is the last line of standard output: the driver's contract.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m *metricSet) resultJSON(defs []metricDef, correct bool, attempted, failed int) ([]byte, error) {
	out := resultLine{Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = metricValue{Value: m.val[d.name], Unit: d.unit}
	}
	return json.Marshal(out)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending-sorted sample, 0 for an empty one.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func mean(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	var sum time.Duration
	for _, x := range d {
		sum += x
	}
	return sum / time.Duration(len(d))
}

// ratio is a/b, 0 when b is 0: per-commit ratios of a phase that committed
// nothing read 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
