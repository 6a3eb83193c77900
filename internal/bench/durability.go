package bench

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
)

// Durability measures acknowledged-write throughput against the disk engine
// (DESIGN.md §14), sweeping concurrent writers. It drives the store directly
// rather than through the simulated cluster: the sim's WAN round-trips are
// tens of scaled milliseconds while an fsync is ~100 µs, so behind the cluster
// both rows would measure the network. At the engine the figure shows the
// durability story itself:
//
//   - memory: nil engine, the no-durability upper bound;
//   - disk: group commit, the engine's one policy. A lone writer pays one
//     fsync per acknowledged write, so w=1 is the per-write-fsync baseline;
//     concurrent writers share fsyncs, with the same guarantee.
//
// The "w=16 vs w=1" column is that scaling, and the fsyncs column (per 1000
// acknowledged writes at 16 writers) the absorption behind it.
func Durability(o Options) ([]Table, error) {
	o = o.withDefaults()
	writersSweep := []int{1, 4, 16}
	t := Table{
		Title: "Durability: acknowledged writes/sec vs concurrent writers (disk engine, " + fmt.Sprint(durabilityWritesTotal(o)) + " writes per cell)",
		Note:  "engine-level sweep; disk = group commit, one fsync per write at w=1; fsyncs column per 1000 writes at 16 writers",
		Columns: []string{"store", "w=1 /sec", "w=4 /sec", "w=16 /sec",
			"w=16 vs w=1", "fsyncs/1k @16"},
	}
	for _, backend := range []string{"memory", "disk"} {
		row := []string{backend}
		var first, last durabilityResult
		for i, w := range writersSweep {
			res, err := durabilityRun(o, backend, w)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", res.perSec))
			if i == 0 {
				first = res
			}
			last = res
			o.Verbose("  durability %-6s w=%-2d %6.0f writes/sec (%d fsyncs for %d writes)",
				backend, w, res.perSec, res.fsyncs, res.writes)
		}
		t.AddRow(append(row, fmt.Sprintf("%.1fx", last.perSec/first.perSec),
			fmt.Sprintf("%.0f", float64(last.fsyncs)*1000/float64(last.writes)))...)
	}
	return []Table{t}, nil
}

// durabilityWritesTotal sizes each cell's workload from the experiment's
// transaction budget: every write is one acknowledged durable mutation.
func durabilityWritesTotal(o Options) int {
	n := o.Txns
	if n < 60 {
		n = 60 // below this, one absorbed fsync dominates the measurement
	}
	return n
}

// durabilityResult is one (backend, writers) cell's outcome.
type durabilityResult struct {
	writes int
	wall   time.Duration
	perSec float64
	fsyncs uint64
}

// durabilityRun executes one cell: writers goroutines split the write budget
// against one fresh store (disk-backed unless backend is "memory"), each
// write acknowledged — on the disk, durable — before the next. Exposed to
// the test suite so the pinned absorption assertion and the rendered figure
// run the same experiment.
func durabilityRun(o Options, backend string, writers int) (durabilityResult, error) {
	o = o.withDefaults()
	var store *kvstore.Store
	var engine *disk.Engine
	if backend == "memory" {
		store = kvstore.New()
	} else {
		dir, err := os.MkdirTemp("", "paxoscp-durability-*")
		if err != nil {
			return durabilityResult{}, fmt.Errorf("bench: durability: %w", err)
		}
		defer os.RemoveAll(dir)
		store, engine, err = disk.Open(dir, disk.Options{})
		if err != nil {
			return durabilityResult{}, fmt.Errorf("bench: durability: %w", err)
		}
	}
	defer store.Close()

	total := durabilityWritesTotal(o)
	perWriter := total / writers
	if perWriter < 1 {
		perWriter = 1
	}
	writes := perWriter * writers
	payload := kvstore.Value{"v": "0123456789abcdef0123456789abcdef", "seq": ""}

	var wg sync.WaitGroup
	errs := make(chan error, writers)
	start := time.Now()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prefix := "dur/w" + strconv.Itoa(w) + "/"
			for i := 0; i < perWriter; i++ {
				v := kvstore.Value{"v": payload["v"], "seq": strconv.Itoa(i)}
				if err := store.WriteIdempotent(prefix+strconv.Itoa(i), v, 1); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return durabilityResult{}, fmt.Errorf("bench: durability %s w=%d: %w", backend, writers, err)
	}
	wall := time.Since(start)

	res := durabilityResult{writes: writes, wall: wall}
	if wall > 0 {
		res.perSec = float64(writes) / wall.Seconds()
	}
	if engine != nil {
		res.fsyncs = engine.Fsyncs()
	}
	return res, nil
}
