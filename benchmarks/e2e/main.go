// Command e2e is the repository's benchmark: it builds a 3-replica
// deployment in its own process, drives it closed-loop from two clients over
// a seed-generated list of operations, checks the outcome, and prints every
// metric by name. See benchmarks/README.md.
//
//	go run ./benchmarks/e2e -workload commit-mem -seed 1
//	go run ./benchmarks/e2e -workload commit-mem -seed 1 -trace 1
//	go run ./benchmarks/e2e -selfcheck
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"paxoscp/internal/core"
)

// setupRounds is how many times an untraced run sets the deployment up;
// setup_s is the median. The last one is the one that gets measured.
const setupRounds = 3

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// maxFailedFrac is the share of measured ops that may fail before the run
// itself is reported incorrect. The expected share is 0.
const maxFailedFrac = 0.001

// maxPeakRSSMB fails a run that outgrows the box the benchmark is sized for.
const maxPeakRSSMB = 2500

// config is one invocation's parameters.
type config struct {
	spec    spec
	seed    int64
	seconds int
	// scale shrinks every count; the tests run at 1/100. The command line
	// always runs at 1.
	scale  float64
	traced bool
	outDir string // where a traced run writes its spans ("" = a new temp dir)
}

// counts returns the warm-up and measured list lengths: opsPerSecond x
// seconds measured, a tenth of that to warm up, a quarter of both when
// traced (the traced run executes the measured list twice, without and with
// the decorators).
func (c config) counts() (warmup, measured int) {
	n := float64(c.spec.opsPerSecond*c.seconds) * c.scale
	if c.traced {
		n /= 4
	}
	measured = max(int(n), 20)
	return max(measured/10, 4), measured
}

// report is what one invocation produced.
type report struct {
	metrics   *metricSet
	defs      []metricDef // the metrics the result line carries
	attempted int
	failed    int
	problems  []string // why the run is not correct; empty = correct
}

func (r *report) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// addPhase folds one measured phase into the report: its op counts, its
// failed ops (the first few named on log) and its correctness gate.
func (r *report) addPhase(log io.Writer, phase string, p *phaseResult, g gate) {
	failed, wrong, first := failures(p.ops)
	r.attempted += len(p.ops)
	r.failed += failed
	for _, err := range first {
		fmt.Fprintf(log, "  %s: failed op: %v\n", phase, err)
	}
	if wrong > 0 {
		r.problem("%s: %d ops returned a wrong result", phase, wrong)
	}
	if float64(failed) > maxFailedFrac*float64(len(p.ops)) {
		r.problem("%s: %d of %d ops failed", phase, failed, len(p.ops))
	}
	for _, v := range g.violations {
		r.problem("%s: %s", phase, v)
	}
}

func (g gate) metrics() *metricSet {
	m := newMetricSet()
	m.set("history.check_ms", ms(g.checkTime))
	m.set("history.violations", float64(len(g.violations)))
	m.set("disk.recover_ms", ms(g.recoverTime))
	m.set("disk.recover_rows", float64(g.recoverRows))
	return m
}

// run executes one workload once and returns its report. Everything it
// starts is stopped and every file it creates is removed before it returns;
// a goroutine left behind is reported as a problem.
func run(ctx context.Context, cfg config, log io.Writer) (*report, error) {
	baseline := runtime.NumGoroutine()
	y, err := newYardstick(max(int(referenceTrips*cfg.scale), 10))
	if err != nil {
		return nil, err
	}
	var rep *report
	if cfg.traced {
		rep, err = runTraced(ctx, cfg, y, log)
	} else {
		rep, err = runUntraced(ctx, cfg, y, log)
	}
	y.close()
	if err != nil {
		return nil, err
	}
	if left := waitGoroutines(baseline); left > baseline {
		rep.problem("%d goroutines still running after teardown (started with %d)", left, baseline)
	}
	rss := peakRSSMB()
	rep.metrics.set("runtime.peak_rss_mb", rss)
	if rss > maxPeakRSSMB {
		rep.problem("peak RSS %.0f MB is above the %d MB the benchmark is sized for", rss, maxPeakRSSMB)
	}
	// End-to-end metrics (the untraced run's) are never 0.
	if err := rep.metrics.check(rep.defs, !cfg.traced); err != nil {
		rep.problem("%v", err)
	}
	return rep, nil
}

// waitGoroutines waits up to 5 s for the goroutine count to fall back to
// baseline (sockets' read loops, sim deliveries and timers end shortly
// after their owners close) and returns the last count seen.
func waitGoroutines(baseline int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= baseline || time.Now().After(deadline) {
			return n
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// runUntraced is the run the end-to-end metrics come from: set up three
// times (setup_s is the median), measure the third deployment, check it. A
// CPU-bound workload's timings are stated against the yardstick: each
// set-up against the slices before and after it, the measured phase against
// the slices inside it.
func runUntraced(ctx context.Context, cfg config, y *yardstick, log io.Writer) (*report, error) {
	warm, measured := cfg.counts()
	in := generate(cfg.spec, cfg.seed, warm, measured)
	var d *deployment
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	var setups []time.Duration
	for round := 0; round < setupRounds; round++ {
		if d != nil {
			d.close()
			d = nil
		}
		runtime.GC()
		before, err := y.slice()
		if err != nil {
			return nil, err
		}
		var took time.Duration
		if d, took, err = setUp(ctx, cfg.spec, cfg.seed, in, nil); err != nil {
			return nil, err
		}
		after, err := y.slice()
		if err != nil {
			return nil, err
		}
		if cfg.spec.cpuBound {
			took = time.Duration(float64(took) / y.speed((before+after)/2))
		}
		setups = append(setups, took)
	}

	p, err := d.measure(ctx, in.measured, false, cfg.spec.cpuBound, y)
	if err != nil {
		return nil, err
	}
	g := d.check(ctx)

	rep := &report{metrics: p.metrics(d, in.measured), defs: endToEnd}
	rep.metrics.merge(g.metrics())
	slices.Sort(setups)
	rep.metrics.setN("setup_s", percentile(setups, 50).Seconds(), len(setups))
	rep.addPhase(log, "measured", &p, g)
	if cfg.spec.cpuBound {
		fmt.Fprintf(log, "  yardstick slice %.2f ms, nominal %.2f ms: timings are stated for the nominal machine; this one did %.1f ops/s\n",
			ms(p.calib), ms(y.nominal), rep.metrics.val["throughput_ops_s"]/p.speed)
	}
	return rep, nil
}

// runTraced is the run the per-layer metrics come from: the same list at a
// quarter of the count, once without the decorators (the counts, and the
// latency the tracing overhead is measured against) and once with them (the
// spans), then the workload's extra baseline and the micro metrics.
func runTraced(ctx context.Context, cfg config, y *yardstick, log io.Writer) (*report, error) {
	warm, measured := cfg.counts()
	in := generate(cfg.spec, cfg.seed, warm, measured)
	rep := &report{metrics: newMetricSet(), defs: perLayer}

	phase := func(name string, s spec, tr *tracer) (*phaseResult, *metricSet, error) {
		d, _, err := setUp(ctx, s, cfg.seed, in, tr)
		if err != nil {
			return nil, nil, err
		}
		defer d.close()
		p, err := d.measure(ctx, in.measured, tr != nil, false, y)
		if err != nil {
			return nil, nil, err
		}
		g := d.check(ctx)
		m := p.metrics(d, in.measured)
		m.merge(g.metrics())
		rep.addPhase(log, name, &p, g)
		return &p, m, nil
	}

	_, plain, err := phase("untraced", cfg.spec, nil)
	if err != nil {
		return nil, err
	}
	rep.metrics.merge(plain)

	tr := newTracer()
	p, traced, err := phase("traced", cfg.spec, tr)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	rep.metrics.merge(spanMetrics(tr, spans, p.commits, len(cfg.spec.dcs)))
	for _, k := range []string{"disk.bytes_per_commit", "disk.snapshots"} {
		rep.metrics.set(k, traced.val[k]) // only the FS decorator sees these
	}
	var begin, read, commit, scan []time.Duration
	for _, r := range p.ops {
		switch {
		case r.out == outCommitted && r.kind != opUpdate:
			begin, commit = append(begin, r.begin), append(commit, r.commit)
			if r.read > 0 {
				read = append(read, r.read)
			}
		case r.out == outOK && r.kind == opReadMulti:
			read = append(read, r.dur)
		case r.out == outOK && r.kind == opScan:
			scan = append(scan, r.dur)
		}
	}
	rep.metrics.setN("core.client.begin_us", us(mean(begin)), len(begin))
	rep.metrics.setN("core.client.read_multi_us", us(mean(read)), len(read))
	rep.metrics.setN("core.client.commit_us", us(mean(commit)), len(commit))
	rep.metrics.setN("core.client.scan_us", us(mean(scan)), len(scan))
	p50 := plain.val["commit_p50_ms"]
	rep.metrics.set("trace.overhead_frac", ratio(traced.val["commit_p50_ms"]-p50, p50))

	rows, total, n := stageTable(spans)
	printStages(log, rows, total, n, time.Duration(p50*float64(time.Millisecond)))
	dir := cfg.outDir
	if dir == "" {
		if dir, err = os.MkdirTemp("", "e2e-trace-*"); err != nil {
			return nil, err
		}
	}
	path, err := writeSpans(dir, rows, spans)
	if err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "spans: %d written to %s\n", len(spans), path)

	// The paper's comparison: the same list under basic Paxos.
	rep.metrics.set("core.basic.commit_frac", 0)
	rep.metrics.set("core.basic.commit_p50_ms", 0)
	if cfg.spec.name == "wan-contended" {
		basic := cfg.spec
		basic.protocol = core.Basic
		_, bm, err := phase("basic", basic, nil)
		if err != nil {
			return nil, err
		}
		rep.metrics.set("core.basic.commit_frac", bm.val["commit_frac"])
		rep.metrics.set("core.basic.commit_p50_ms", bm.val["commit_p50_ms"])
	}

	micro, err := microMetrics()
	if err != nil {
		return nil, err
	}
	rep.metrics.merge(micro)
	return rep, nil
}

// traceFlag is -trace: the driver passes "--trace 0" or "--trace 1", which a
// boolean flag would not parse.
type traceFlag bool

func (t *traceFlag) String() string { return fmt.Sprint(bool(*t)) }
func (t *traceFlag) Set(s string) error {
	switch s {
	case "0", "false":
		*t = false
	case "1", "true":
		*t = true
	default:
		return fmt.Errorf("want 0 or 1")
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, s := range specs {
		names = append(names, s.name)
	}
	return strings.Join(names, ", ")
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: "+workloadNames())
		seed      = flag.Int64("seed", 1, "seed the op lists, the clients' backoff and the simulated network are generated from")
		seconds   = flag.Int("seconds", defaultSeconds, "sizes the op lists: the measured phase takes about this long at the commit that defined the benchmark")
		traced    traceFlag
		out       = flag.String("out", "", "directory a traced run writes spans.json to (default: a new temp dir)")
		selfcheck = flag.Bool("selfcheck", false, "run every workload in two alternating sets and compare them with BENCHMARK.json's bounds")
		runs      = flag.Int("runs", 3, "selfcheck: runs per workload and set, each with another seed")
		noise     = flag.String("noise", "", "selfcheck: write the observed spread to this file as markdown")
	)
	flag.Var(&traced, "trace", "0: untraced run, prints the end-to-end metrics; 1: traced run, prints the per-layer metrics")
	flag.Parse()

	if *selfcheck {
		if err := selfCheck(*runs, *seconds, *noise); err != nil {
			fmt.Fprintln(os.Stderr, "e2e:", err)
			os.Exit(1)
		}
		return
	}
	s, ok := specByName(*workload)
	if !ok || *seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "e2e: -workload must be one of %s, -seconds at least 1\n", workloadNames())
		os.Exit(2)
	}
	// Two processors whatever the machine has: the deployment is sized for a
	// 2-core box, and the services size their dispatch by GOMAXPROCS.
	runtime.GOMAXPROCS(2)
	cfg := config{spec: s, seed: *seed, seconds: *seconds, scale: 1, traced: bool(traced), outDir: *out}
	warm, measured := cfg.counts()
	fmt.Printf("workload %s seed %d: %d warm-up + %d measured ops, 2 closed-loop clients, GOMAXPROCS %d, %s\n  %s\n",
		s.name, cfg.seed, warm, measured, runtime.GOMAXPROCS(0), runtime.Version(), s.why)

	rep, err := run(context.Background(), cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	fmt.Printf("end-to-end metrics (untraced run)\n")
	rep.metrics.print(os.Stdout, endToEnd)
	fmt.Printf("per-layer metrics\n")
	rep.metrics.print(os.Stdout, perLayer)
	sort.Strings(rep.problems)
	for _, p := range rep.problems {
		fmt.Printf("INCORRECT: %s\n", p)
	}
	fmt.Printf("attempted %d ops, failed %d\n", rep.attempted, rep.failed)
	line, err := rep.metrics.resultJSON(rep.defs, len(rep.problems) == 0, rep.attempted, rep.failed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if len(rep.problems) > 0 {
		os.Exit(1)
	}
}
