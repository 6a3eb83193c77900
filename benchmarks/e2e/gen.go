package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"paxoscp/internal/core"
)

// opKind is what one client operation does.
type opKind uint8

const (
	// opWrite commits a transaction of blind writes (keys, vals).
	opWrite opKind = iota
	// opReadWrite reads `reads` in one ReadMulti, then commits writes to keys.
	opReadWrite
	// opReadMulti is a routed multi-key read of keys (no commit).
	opReadMulti
	// opScan is a routed ordered scan of the prefix keys[0].
	opScan
	// opUpdate is a routed read-modify-write of keys[0] to vals[0].
	opUpdate
)

// op is one pre-generated client operation. Everything a client needs is in
// here; the clients draw nothing at run time.
type op struct {
	kind  opKind
	reads []string
	keys  []string
	vals  []string
}

// spec describes one workload: its deployment, its clients and its inputs.
// All sizes are constants chosen once at this commit; nothing adapts to how
// fast the run goes (ISSUE 14, rule 1).
type spec struct {
	name string
	why  string

	sim      bool     // network.Sim with the paper's RTTs instead of UDP loopback
	durable  bool     // disk engine with fsync=batch instead of in-memory stores
	dcs      []string // replica datacenters
	clientAt []string // home datacenter of each of the two clients
	groups   int
	protocol core.Protocol
	timeout  time.Duration
	simScale float64

	// opsPerSecond sizes the op lists: measured ops = opsPerSecond x
	// -seconds, warm-up ops = a tenth of that. It is roughly what the
	// workload sustains at this commit on two cores, so -seconds is about
	// how long the measured phase takes here.
	opsPerSecond int

	// cpuBound marks a workload whose time goes to computing, not to
	// waiting for an injected delay: its timings move with the shared
	// host's speed, so the untraced run states them against the yardstick
	// (reference.go).
	cpuBound bool

	// preload returns the rows written before the warm-up (nil = none).
	preload func(rng *rand.Rand) [][2]string
	gen     func(rng *rand.Rand) op
}

const (
	valueBytes = 40

	commitKeys     = 10000
	writesPerOp    = 4
	scanBuckets    = 400
	rowsPerBucket  = 50
	readKeysPerOp  = 4
	wanAttributes  = 50
	wanReadsPerOp  = 5
	wanWritesPerOp = 5
)

var loopbackDCs = []string{"V1", "V2", "V3"}

func commitSpec(name, why string, durable bool, opsPerSecond int) spec {
	return spec{
		name: name, why: why, durable: durable, cpuBound: !durable,
		dcs: loopbackDCs, clientAt: []string{"V1", "V2"}, groups: 1,
		protocol: core.Master, timeout: time.Second, opsPerSecond: opsPerSecond,
		gen: func(rng *rand.Rand) op {
			o := op{kind: opWrite}
			for _, k := range distinct(rng, writesPerOp, commitKeys) {
				o.keys = append(o.keys, fmt.Sprintf("k%05d", k))
				o.vals = append(o.vals, value(rng))
			}
			return o
		},
	}
}

// specs lists the four workloads in the order -selfcheck alternates them.
var specs = []spec{
	commitSpec("commit-mem",
		"CPU-bound commit path on UDP loopback with in-memory stores: codec, dispatch, submit pipeline, acceptor, replog apply, GC",
		false, 5000),
	commitSpec("commit-durable",
		"the same commits with every store on the disk engine at fsync=batch, each fsync held to 3 ms: the WAL's appends and group commit set the pace, not the host's disk; then crash recovery",
		true, 90),
	{
		name: "read-scan",
		why:  "4 groups through core.KV: 70% 4-key ReadMulti, 20% 50-row Scan, 10% Update; bypasses the commit path's cost, catches read regressions",
		dcs:  loopbackDCs, clientAt: []string{"V1", "V2"}, groups: 4, cpuBound: true,
		protocol: core.Master, timeout: time.Second, opsPerSecond: 6000,
		preload: func(rng *rand.Rand) [][2]string {
			rows := make([][2]string, 0, scanBuckets*rowsPerBucket)
			for b := 0; b < scanBuckets; b++ {
				for i := 0; i < rowsPerBucket; i++ {
					rows = append(rows, [2]string{scanKey(b, i), value(rng)})
				}
			}
			return rows
		},
		gen: func(rng *rand.Rand) op {
			switch p := rng.Intn(10); {
			case p < 7:
				o := op{kind: opReadMulti}
				for _, k := range distinct(rng, readKeysPerOp, scanBuckets*rowsPerBucket) {
					o.keys = append(o.keys, scanKey(k/rowsPerBucket, k%rowsPerBucket))
				}
				return o
			case p < 9:
				return op{kind: opScan, keys: []string{fmt.Sprintf("t%03d/", rng.Intn(scanBuckets))}}
			default:
				k := rng.Intn(scanBuckets * rowsPerBucket)
				return op{kind: opUpdate, keys: []string{scanKey(k/rowsPerBucket, k%rowsPerBucket)}, vals: []string{value(rng)}}
			}
		},
	},
	{
		name: "wan-contended",
		why:  "the paper's experiment: Paxos-CP over simulated V/O/C WAN links, 5 reads + 5 writes on 50 hot attributes; latency is rounds x RTT, no codec, no disk",
		sim:  true, dcs: []string{"C", "O", "V"}, clientAt: []string{"V", "O"}, groups: 1,
		protocol: core.CP, timeout: 2 * time.Second / 15, simScale: 1.0 / 15, opsPerSecond: 100,
		gen: func(rng *rand.Rand) op {
			o := op{kind: opReadWrite}
			for _, k := range distinct(rng, wanReadsPerOp, wanAttributes) {
				o.reads = append(o.reads, fmt.Sprintf("a%02d", k))
			}
			for _, k := range distinct(rng, wanWritesPerOp, wanAttributes) {
				o.keys = append(o.keys, fmt.Sprintf("a%02d", k))
				o.vals = append(o.vals, value(rng))
			}
			return o
		},
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func scanKey(bucket, id int) string { return fmt.Sprintf("t%03d/%03d", bucket, id) }

// value draws a 40-byte printable value.
func value(rng *rand.Rand) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, valueBytes)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// distinct draws n distinct integers from [0, limit), ascending.
func distinct(rng *rand.Rand, n, limit int) []int {
	seen := make(map[int]bool, n)
	out := make([]int, 0, n)
	for len(out) < n {
		if k := rng.Intn(limit); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}

// inputs is everything a run feeds the system, a function of (spec, seed,
// counts) and of nothing else.
type inputs struct {
	preload  [][2]string
	warmup   []op
	measured []op
}

// generate builds the inputs for one phase. The three lists draw from
// separate generators so that changing one count leaves the others alone.
func generate(s spec, seed int64, warmup, measured int) inputs {
	var in inputs
	if s.preload != nil {
		in.preload = s.preload(rand.New(rand.NewSource(seed*3 + 1)))
	}
	in.warmup = genOps(s, rand.New(rand.NewSource(seed*3+2)), warmup)
	in.measured = genOps(s, rand.New(rand.NewSource(seed*3+3)), measured)
	return in
}

func genOps(s spec, rng *rand.Rand, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		ops[i] = s.gen(rng)
	}
	return ops
}
