package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/placement"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// Micro metrics time one public function of one layer in isolation, over a
// fixed number of iterations on fixed inputs. They say whether a layer's own
// code got faster; whether that matters is the end-to-end metrics' call.

var microSink int

// timeN is the mean duration of n calls of f.
func timeN(n int, f func(i int)) time.Duration {
	start := time.Now()
	for i := 0; i < n; i++ {
		f(i)
	}
	return time.Since(start) / time.Duration(n)
}

func ns(d time.Duration) float64 { return float64(d) }

// microEntry is the 4-write log entry every commit workload replicates.
func microEntry(rng *rand.Rand) wal.Entry {
	t := wal.Txn{ID: "V1-0-12345", Origin: "V1", ReadPos: 12344, Writes: make(map[string]string)}
	for _, k := range distinct(rng, writesPerOp, commitKeys) {
		t.Writes[fmt.Sprintf("k%05d", k)] = value(rng)
	}
	return wal.NewEntry(t)
}

func microMetrics() (*metricSet, error) {
	m := newMetricSet()
	rng := rand.New(rand.NewSource(1))
	entry := microEntry(rng)
	entryBytes := wal.Encode(entry)

	// wal: the entry codec.
	m.set("wal.entry_bytes", float64(len(entryBytes)))
	m.set("wal.encode_ns", ns(timeN(20000, func(int) { microSink += len(wal.Encode(entry)) })))
	m.set("wal.decode_ns", ns(timeN(20000, func(int) {
		e, _ := wal.Decode(entryBytes)
		microSink += len(e.Txns)
	})))

	// network: the wire codec on the accept that carries that entry, and one
	// request/response over two loopback sockets.
	accept := network.Message{Kind: network.KindAccept, Group: "g0", Pos: 12345, Payload: entryBytes}
	wire := network.MarshalBinary(accept)
	m.set("network.codec.encode_ns", ns(timeN(20000, func(int) { microSink += len(network.MarshalBinary(accept)) })))
	m.set("network.codec.decode_ns", ns(timeN(20000, func(int) {
		msg, _ := network.UnmarshalBinary(wire)
		microSink += len(msg.Payload)
	})))
	echo, err := udpEcho(accept)
	if err != nil {
		return nil, err
	}
	m.set("network.udp.echo_us", us(echo))

	// paxos: one acceptor over an in-memory store, a fresh position per call.
	acc := paxos.NewAcceptor(kvstore.New())
	ballot := paxos.Ballot(1, 7)
	m.set("paxos.acceptor.prepare_us", us(timeN(5000, func(i int) {
		r, _ := acc.Prepare("g0", int64(i+1), ballot)
		microSink += int(r.Promised)
	})))
	m.set("paxos.acceptor.accept_us", us(timeN(5000, func(i int) {
		r, _ := acc.Accept("g0", int64(i+1), ballot, entryBytes)
		microSink += int(r.Promised)
	})))

	// replog: append a decided entry and wait for it to be applied.
	lg := replog.Open(kvstore.New(), "g0")
	var lgErr error
	m.set("replog.append_apply_us", us(timeN(5000, func(i int) {
		if _, err := lg.Append(int64(i+1), entryBytes); err != nil {
			lgErr = err
		} else if err := lg.WaitApplied(context.Background(), int64(i+1)); err != nil {
			lgErr = err
		}
	})))
	lg.Close()
	if lgErr != nil {
		return nil, fmt.Errorf("micro replog: %w", lgErr)
	}

	// kvstore: the read-scan workload's table — 20 000 rows, the last tenth
	// inserted after the ordered index last folded, so still in its delta.
	st := kvstore.New()
	readScan, _ := specByName("read-scan")
	rows := readScan.preload(rng)
	load := func(rows [][2]string, ts int64) error {
		for _, kv := range rows {
			if err := st.WriteIdempotent(kv[0], kvstore.Value{"v": kv[1]}, ts); err != nil {
				return err
			}
		}
		return nil
	}
	rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	cut := len(rows) * 9 / 10
	if err := load(rows[:cut], 1); err != nil {
		return nil, fmt.Errorf("micro kvstore: %w", err)
	}
	if _, _, err := st.ScanPrefix("t", "", 1, kvstore.Latest); err != nil { // folds the index
		return nil, fmt.Errorf("micro kvstore: %w", err)
	}
	if err := load(rows[cut:], 1); err != nil {
		return nil, fmt.Errorf("micro kvstore: %w", err)
	}
	const batches = 5000
	batch := make([][]kvstore.BatchWrite, batches)
	for i := range batch {
		for _, k := range distinct(rng, writesPerOp, len(rows)) {
			batch[i] = append(batch[i], kvstore.BatchWrite{Key: rows[k][0], Value: kvstore.Value{"v": rows[k][1]}, TS: int64(i + 2)})
		}
	}
	var stErr error
	m.set("kvstore.apply_batch_us", us(timeN(batches, func(i int) {
		if err := st.ApplyBatch(batch[i]); err != nil {
			stErr = err
		}
	})))
	keys := make([][]string, 1024)
	for i := range keys {
		for _, k := range distinct(rng, readKeysPerOp, len(rows)) {
			keys[i] = append(keys[i], rows[k][0])
		}
	}
	m.set("kvstore.read_multi_us", us(timeN(20000, func(i int) {
		r, err := st.ReadMulti(keys[i%len(keys)], kvstore.Latest)
		if err != nil || !r[0].Found {
			stErr = fmt.Errorf("readmulti: %v", err)
		}
	})))
	m.set("kvstore.scan_prefix_us", us(timeN(2000, func(i int) {
		r, _, err := st.ScanPrefix(fmt.Sprintf("t%03d/", i%scanBuckets), "", rowsPerBucket, kvstore.Latest)
		if err != nil || len(r) != rowsPerBucket {
			stErr = fmt.Errorf("scan: %d rows, %v", len(r), err)
		}
	})))
	if stErr != nil {
		return nil, fmt.Errorf("micro kvstore: %w", stErr)
	}

	// placement: routing one key over four groups.
	place := placement.NewN(4)
	m.set("placement.group_for_ns", ns(timeN(100000, func(i int) {
		microSink += len(place.GroupFor(rows[i%len(rows)][0]))
	})))
	return m, nil
}

// udpEcho is the mean round trip of req between two loopback sockets whose
// handler answers inline.
func udpEcho(req network.Message) (time.Duration, error) {
	srv, err := network.NewUDPAsync("srv", "127.0.0.1:0", nil, func(_ string, _ network.Message, reply func(network.Message)) {
		reply(network.Status(true, ""))
	})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	cli, err := network.NewUDPAsync("cli", "127.0.0.1:0", map[string]string{"srv": srv.LocalAddr()}, nil)
	if err != nil {
		return 0, err
	}
	defer cli.Close()
	var sendErr error
	d := timeN(2000, func(int) {
		if _, err := cli.Send(context.Background(), "srv", req); err != nil {
			sendErr = err
		}
	})
	return d, sendErr
}
