package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/stats"
)

// outcome is how one client operation ended.
type outcome uint8

const (
	outOK        outcome = iota // read or scan returned a checked result
	outCommitted                // read/write transaction committed
	outAborted                  // lost to a conflicting transaction: a verdict, not a failure
	outFailed                   // returned an error, timed out, or was refused
	outWrong                    // returned a result that failed its check
)

// opResult is what the driver keeps per measured op.
type opResult struct {
	kind     opKind
	out      outcome
	rejected bool
	combined bool
	round    int
	dur      time.Duration
	// sub-timings of the calls inside the op, recorded in traced runs only
	begin, read, commit time.Duration
	err                 error
}

// phaseResult is one measured phase, before it is turned into metrics.
type phaseResult struct {
	ops     []opResult
	elapsed time.Duration

	alloc, mallocs uint64 // MemStats.TotalAlloc / Mallocs deltas
	gcCycles       uint32
	gcPause        time.Duration
	cpu            time.Duration // getrusage user+system delta
	liveHeap       uint64        // HeapAlloc after a forced GC at the end
	calib          time.Duration // mean yardstick slice around and inside the phase
	speed          float64       // what the timings are divided by: the yardstick's, 1 when not scaled

	commits, aborts int   // from the clients' stats.Collector
	rowsGrown       int   // Store.Len growth, summed over replicas
	scanExamined    int64 // Store.ScanExamined growth, summed over replicas
	scanRows        int64 // rows the scans returned
	disk            diskCounts
	lag             lagSampler
}

// runOps drives ops closed-loop from the deployment's two clients: each
// takes the next op off the shared list when its previous one has returned.
// traced adds the per-call sub-timings and the op spans.
func (d *deployment) runOps(ctx context.Context, ops []op, traced bool) ([]opResult, time.Duration) {
	results := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range d.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				results[i] = d.runOp(ctx, c, i, ops[i], traced)
			}
		}(c)
	}
	wg.Wait()
	return results, time.Since(start)
}

var opNames = [...]string{opWrite: "commit", opReadWrite: "commit", opReadMulti: "read", opScan: "scan", opUpdate: "commit"}

// runOp executes one op on c and checks what it returned.
func (d *deployment) runOp(ctx context.Context, c *client, i int, o op, traced bool) opResult {
	r := opResult{kind: o.kind}
	var sp span
	if traced {
		sp = span{ID: d.tr.nextID.Add(1), Op: int32(i + 1), Name: "op." + opNames[o.kind], At: c.name, Start: d.tr.now()}
		c.cur.op.Store(sp.Op)
		c.cur.span.Store(sp.ID)
	}
	start := time.Now()
	switch o.kind {
	case opWrite, opReadWrite:
		d.runTxn(ctx, c, o, &r, traced)
	case opReadMulti:
		got, err := c.kv.ReadMulti(ctx, o.keys...)
		switch {
		case err != nil:
			r.out, r.err = outFailed, err
		case !readOK(got, len(o.keys)):
			r.out, r.err = outWrong, fmt.Errorf("readmulti %v: missing or short value", o.keys)
		}
	case opScan:
		got, err := c.kv.Scan(ctx, o.keys[0])
		if err != nil {
			r.out, r.err = outFailed, err
		} else if err := scanOK(got, o.keys[0]); err != nil {
			r.out, r.err = outWrong, err
		}
	case opUpdate:
		res, err := c.kv.Update(ctx, o.keys[0], 0, func(string, bool) (string, error) { return o.vals[0], nil })
		r.setCommit(res, err)
	}
	r.dur = time.Since(start)
	if traced {
		sp.End, sp.OK = d.tr.now(), r.out <= outCommitted
		d.tr.record(sp)
		c.cur.op.Store(0)
		c.cur.span.Store(0)
	}
	return r
}

// runTxn runs one single-group read/write transaction: Begin, the reads in
// one ReadMulti, the buffered writes, Commit.
func (d *deployment) runTxn(ctx context.Context, c *client, o op, r *opResult, traced bool) {
	group := d.place.Groups()[0]
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	tx, err := c.cl.Begin(ctx, group)
	if err != nil {
		r.out, r.err = outFailed, err
		return
	}
	if traced {
		r.begin = time.Since(t0)
		t0 = time.Now()
	}
	if len(o.reads) > 0 {
		if _, _, err := tx.ReadMulti(ctx, o.reads...); err != nil {
			tx.Abort()
			r.out, r.err = outFailed, err
			return
		}
		if traced {
			r.read = time.Since(t0)
			t0 = time.Now()
		}
	}
	for i, k := range o.keys {
		tx.Write(k, o.vals[i])
	}
	res, err := tx.Commit(ctx)
	if traced {
		r.commit = time.Since(t0)
	}
	r.setCommit(res, err)
}

func (r *opResult) setCommit(res core.CommitResult, err error) {
	r.combined, r.round = res.Combined, res.Round
	switch {
	case err != nil:
		r.out, r.err = outFailed, err
	case res.Status == stats.Committed:
		r.out = outCommitted
	case res.Status == stats.Aborted:
		r.out = outAborted
	default:
		r.out, r.rejected = outFailed, res.Status == stats.Rejected
		r.err = fmt.Errorf("commit: %v", res.Status)
	}
}

// readOK checks a routed read of preloaded keys: every key found, every
// value whole.
func readOK(got *core.MultiRead, n int) bool {
	if len(got.Vals) != n || len(got.Founds) != n {
		return false
	}
	for i := range got.Vals {
		if !got.Founds[i] || len(got.Vals[i]) != valueBytes {
			return false
		}
	}
	return true
}

// scanOK checks one bucket scan: sorted, duplicate-free, inside its prefix,
// and complete (rows are never deleted, so every bucket holds 50).
func scanOK(got *core.ScanResult, prefix string) error {
	if len(got.Entries) != rowsPerBucket {
		return fmt.Errorf("scan %q: %d rows, want %d", prefix, len(got.Entries), rowsPerBucket)
	}
	for i, e := range got.Entries {
		if !strings.HasPrefix(e.Key, prefix) {
			return fmt.Errorf("scan %q: key %q outside the prefix", prefix, e.Key)
		}
		if i > 0 && got.Entries[i-1].Key >= e.Key {
			return fmt.Errorf("scan %q: %q then %q: not sorted and duplicate-free", prefix, got.Entries[i-1].Key, e.Key)
		}
	}
	return nil
}

// failures returns how many ops failed or returned a wrong result, and the
// first few of their errors.
func failures(ops []opResult) (failed, wrong int, first []error) {
	for _, r := range ops {
		switch r.out {
		case outFailed:
			failed++
		case outWrong:
			wrong++
		default:
			continue
		}
		if len(first) < 3 {
			first = append(first, r.err)
		}
	}
	return failed, wrong, first
}

// setUp builds the deployment and brings it to the start of the measured
// phase: stores and sockets open, rows preloaded, masterships claimed, the
// warm-up list run. Its duration is the workload's setup_s.
func setUp(ctx context.Context, s spec, seed int64, in inputs, tr *tracer) (*deployment, time.Duration, error) {
	start := time.Now()
	d, err := deploy(s, seed, tr)
	if err != nil {
		return nil, 0, err
	}
	if err = d.claim(ctx); err == nil {
		err = d.preload(ctx, in.preload)
	}
	if err == nil {
		err = d.converge(ctx)
	}
	if err == nil {
		res, _ := d.runOps(ctx, in.warmup, false)
		if failed, wrong, first := failures(res); failed+wrong > 0 {
			err = fmt.Errorf("warm-up: %d ops failed, %d wrong: %w", failed, wrong, errors.Join(first...))
		}
	}
	if err != nil {
		d.close()
		return nil, 0, fmt.Errorf("%s: set-up: %w", s.name, err)
	}
	return d, time.Since(start), nil
}

// measure runs the measured list on a set-up deployment and collects the
// phase's counts around it. A yardstick slice runs before and after the
// list; a scaled phase also stops the clients for one after every quarter
// second's worth of ops (see reference.go). What the slices allocate and burn is kept out of
// the phase's counts.
func (d *deployment) measure(ctx context.Context, ops []op, traced, scaled bool, y *yardstick) (phaseResult, error) {
	p := phaseResult{speed: 1}
	rows0, exam0 := d.storeCounts()
	disk0 := d.diskCounts()
	d.coll.Reset()
	if d.tr != nil {
		d.tr.reset()
	}
	runtime.GC() // start every phase from a just-collected heap
	y.mean()
	if _, err := y.slice(); err != nil {
		return p, err
	}
	stopLag := p.lag.start(d)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0 := readUsage()

	chunk := len(ops)
	if scaled {
		chunk = max(d.s.opsPerSecond/4, 1)
	}
	var inSlices usage
	for lo := 0; lo < len(ops); lo += chunk {
		res, took := d.runOps(ctx, ops[lo:min(lo+chunk, len(ops))], traced)
		p.ops = append(p.ops, res...)
		p.elapsed += took
		before := readUsage()
		if _, err := y.slice(); err != nil {
			stopLag()
			return p, err
		}
		inSlices = inSlices.plus(readUsage().minus(before))
	}

	used := readUsage().minus(u0).minus(inSlices)
	runtime.ReadMemStats(&m1)
	stopLag()
	p.calib = y.mean()
	if scaled {
		p.speed = y.speed(p.calib)
	}
	p.alloc, p.mallocs, p.cpu = used.alloc, used.mallocs, used.cpu
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	sum := d.coll.Summarize()
	p.commits, p.aborts = sum.Commits, sum.Aborts
	rows1, exam1 := d.storeCounts()
	p.rowsGrown, p.scanExamined = rows1-rows0, exam1-exam0
	p.disk = d.diskCounts().minus(disk0)
	for _, r := range p.ops {
		if r.kind == opScan && r.out == outOK {
			p.scanRows += rowsPerBucket
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	p.liveHeap = m1.HeapAlloc
	return p, nil
}

// usage is what the process has allocated and burnt so far.
type usage struct {
	alloc, mallocs uint64
	cpu            time.Duration // getrusage user+system
}

func readUsage() usage {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(sample)
	return usage{sample[0].Value.Uint64(), sample[1].Value.Uint64(), cpuTime()}
}

func (a usage) minus(b usage) usage {
	return usage{a.alloc - b.alloc, a.mallocs - b.mallocs, a.cpu - b.cpu}
}

func (a usage) plus(b usage) usage {
	return usage{a.alloc + b.alloc, a.mallocs + b.mallocs, a.cpu + b.cpu}
}

func (d *deployment) storeCounts() (rows int, examined int64) {
	for _, r := range d.replicas {
		rows += r.store.Len()
		examined += r.store.ScanExamined()
	}
	return rows, examined
}

// diskCounts sums the replicas' disk activity: fsyncs from the engines, the
// device's own fsync time from the pacing FS, WAL bytes and published
// snapshots from the FS decorator (traced runs).
type diskCounts struct {
	fsyncs, bytes, snapshots, rawSyncs, rawNanos int64
}

func (a diskCounts) minus(b diskCounts) diskCounts {
	return diskCounts{a.fsyncs - b.fsyncs, a.bytes - b.bytes, a.snapshots - b.snapshots,
		a.rawSyncs - b.rawSyncs, a.rawNanos - b.rawNanos}
}

func (d *deployment) diskCounts() (c diskCounts) {
	for _, r := range d.replicas {
		if r.engine != nil {
			c.fsyncs += int64(r.engine.Fsyncs())
		}
		if r.paced != nil {
			c.rawSyncs += r.paced.syncs.Load()
			c.rawNanos += r.paced.rawNanos.Load()
		}
		if r.fs != nil {
			c.bytes += r.fs.bytes.Load()
			c.snapshots += r.fs.snapshots.Load()
		}
	}
	return c
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KB
}

// lagSampler samples, every 100 ms, how many log positions each follower's
// applied watermark trails its group master's.
type lagSampler struct {
	sum, n int64
}

func (l *lagSampler) start(d *deployment) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			for _, g := range d.place.Groups() {
				head := d.replica(d.masterOf(g)).svc.LastApplied(g)
				for _, r := range d.replicas {
					if r.dc != d.masterOf(g) {
						l.sum += max(head-r.svc.LastApplied(g), 0)
						l.n++
					}
				}
			}
		}
	}()
	return func() { close(done); wg.Wait() }
}

// metrics turns a phase into the metrics that need no tracer: the
// end-to-end ones and the per-layer counts.
func (p *phaseResult) metrics(d *deployment, ops []op) *metricSet {
	m := newMetricSet()
	var all, commit, read, scan []time.Duration
	var ok, failed, rejected, committed, combined, promoted, rounds, readmultis, groupsRead int
	for i, r := range p.ops {
		switch r.out {
		case outFailed, outWrong:
			failed++
			if r.rejected {
				rejected++
			}
			continue
		}
		ok++
		all = append(all, r.dur)
		switch {
		case r.out == outCommitted:
			commit = append(commit, r.dur)
			committed++
			rounds += r.round
			if r.combined {
				combined++
			}
			if r.round > 0 {
				promoted++
			}
		case r.kind == opReadMulti:
			read = append(read, r.dur)
			readmultis++
			groups := make(map[string]bool, len(ops[i].keys))
			for _, k := range ops[i].keys {
				groups[d.place.GroupFor(k)] = true
			}
			groupsRead += len(groups)
		case r.kind == opScan:
			scan = append(scan, r.dur)
		}
	}
	for _, d := range [][]time.Duration{all, commit, read, scan} {
		slices.Sort(d)
	}
	n := float64(len(p.ops))

	// A scaled phase states its timings for a machine on which a yardstick
	// slice takes referenceNominal: p.speed is how much slower than that
	// this machine ran while the phase was measured.
	pct := func(sorted []time.Duration, q float64) float64 { return ms(percentile(sorted, q)) / p.speed }

	m.setN("throughput_ops_s", float64(ok)/p.elapsed.Seconds()*p.speed, ok)
	m.setN("op_p50_ms", pct(all, 50), len(all))
	m.setN("commit_p50_ms", pct(commit, 50), len(commit))
	m.set("commit_frac", ratio(float64(p.commits), float64(p.commits+p.aborts)))
	m.set("alloc_kb_per_op", float64(p.alloc)/1024/n)
	m.set("live_heap_mb", float64(p.liveHeap)/(1<<20))

	m.set("failed_frac", float64(failed)/n)
	m.setN("core.client.commit_p90_ms", pct(commit, 90), len(commit))
	m.setN("core.client.commit_p99_ms", pct(commit, 99), len(commit))
	m.setN("core.client.read_p50_ms", pct(read, 50), len(read))
	m.setN("core.client.read_p99_ms", pct(read, 99), len(read))
	m.setN("core.client.scan_p50_ms", pct(scan, 50), len(scan))
	m.setN("core.client.scan_p99_ms", pct(scan, 99), len(scan))
	m.set("core.rejected_frac", float64(rejected)/n)
	// Combination belongs to the master's pipeline under the Master
	// protocol and to the client's value selection under Paxos-CP.
	for _, k := range []string{"core.master.combined_frac", "core.cp.combined_frac", "core.cp.promoted_frac", "core.cp.rounds_mean"} {
		m.set(k, 0)
	}
	if d.s.protocol == core.Master {
		m.set("core.master.combined_frac", ratio(float64(combined), float64(committed)))
	} else {
		m.set("core.cp.combined_frac", ratio(float64(combined), float64(committed)))
		m.set("core.cp.promoted_frac", ratio(float64(promoted), float64(committed)))
		m.set("core.cp.rounds_mean", ratio(float64(rounds), float64(committed)))
	}
	m.set("placement.groups_per_readmulti", ratio(float64(groupsRead), float64(readmultis)))
	m.set("replog.follower_lag_pos", ratio(float64(p.lag.sum), float64(p.lag.n)))
	m.set("kvstore.scan_examined_per_row", ratio(float64(p.scanExamined), float64(p.scanRows)))
	m.set("kvstore.rows_per_commit", ratio(float64(p.rowsGrown)/float64(len(d.replicas)), float64(p.commits)))
	m.set("disk.fsyncs_per_commit", ratio(float64(p.disk.fsyncs), float64(p.commits)))
	m.set("disk.bytes_per_commit", ratio(float64(p.disk.bytes), float64(p.commits)))
	m.set("disk.snapshots", float64(p.disk.snapshots))
	m.set("disk.fsync_raw_ms", ratio(float64(p.disk.rawNanos)/1e6, float64(p.disk.rawSyncs)))
	m.set("runtime.cpu_us_per_op", us(p.cpu)/n)
	m.set("runtime.gc_cycles", float64(p.gcCycles))
	m.set("runtime.gc_pause_ms", ms(p.gcPause))
	m.set("runtime.allocs_per_op", float64(p.mallocs)/n)
	m.set("runtime.calib_ms", ms(p.calib))
	return m
}
