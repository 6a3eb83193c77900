package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// stageRow is one line of the stage table: the mean self time per committed
// transaction spent at one layer boundary.
type stageRow struct {
	Stage  string  `json:"stage"`
	MeanUS float64 `json:"mean_us_per_commit"`
	Share  float64 `json:"share"`
}

// The stage table splits a committed transaction's latency by what the
// client was waiting for at each instant. Spans nest in levels
//
//	0 op (client Begin -> Commit ack)        core.client
//	1 the client's transport sends           network.client.<kind>
//	2 the handlers those sends invoked       core.handle.<kind>
//	3 the master's accept and apply sends    network.replica.<kind>
//	4 the handlers those invoked             core.handle.<kind>
//	5 store -> engine calls inside handlers  kvstore.engine.<call>
//	6 engine -> file calls                   disk.fs.<call>
//
// Every span is clipped to the span that caused it, and each instant of the
// op is charged to the deepest level active then. That is self time: a
// span's duration minus the part its children cover, with parallel children
// (the three accepts of a round) counted once. The rows of one op add up to
// the op's latency exactly.
//
// Levels 1-4 are joined by cause (the client's current op; the request both
// ends of the wire see; the log position a submit's reply names). Levels 5
// and 6 are joined by time and replica, because nothing a store passes its
// engine names the request: with two clients a file write can be charged to
// the op that overlapped it, not the one that queued it. Under group commit
// it serves both.
type interval struct {
	start, end int64
	level      int
	label      string
}

// calls indexes one replica's engine or file spans by start time.
type calls struct {
	idx     []int
	longest int64
}

type posKey struct {
	group string
	pos   int64
}

// stageTable builds the table over the committed transactions whose latency
// lies in the middle half of the sample, so that its total tracks the
// median and not the tail. It returns the rows, their total and the number
// of transactions behind them.
func stageTable(spans []span) (rows []stageRow, totalUS float64, n int) {
	var ops []int
	sendsOf := make(map[int32][]int)    // op -> the client's sends
	handlersOf := make(map[int32][]int) // send span -> handlers it invoked
	roundsAt := make(map[posKey][]int)  // log position -> the master's sends for it
	byDC := make(map[string]*[2]calls)  // dc -> engine calls, file calls
	for i, s := range spans {
		kind, rest, _ := strings.Cut(s.Name, ".")
		switch kind {
		case "op":
			if rest == "commit" && s.OK {
				ops = append(ops, i)
			}
		case "send":
			if s.Op > 0 {
				sendsOf[s.Op] = append(sendsOf[s.Op], i)
			} else if s.Pos > 0 {
				roundsAt[posKey{s.Group, s.Pos}] = append(roundsAt[posKey{s.Group, s.Pos}], i)
			}
		case "handle":
			if s.Parent > 0 {
				handlersOf[s.Parent] = append(handlersOf[s.Parent], i)
			}
		case "engine", "fs":
			if byDC[s.At] == nil {
				byDC[s.At] = new([2]calls)
			}
			c := &byDC[s.At][0]
			if kind == "fs" {
				c = &byDC[s.At][1]
			}
			c.idx = append(c.idx, i)
			c.longest = max(c.longest, s.End-s.Start)
		}
	}
	for _, v := range byDC {
		for _, c := range v {
			sort.Slice(c.idx, func(a, b int) bool { return spans[c.idx[a]].Start < spans[c.idx[b]].Start })
		}
	}
	sort.Slice(ops, func(a, b int) bool {
		return spans[ops[a]].End-spans[ops[a]].Start < spans[ops[b]].End-spans[ops[b]].Start
	})
	ops = ops[len(ops)/4 : len(ops)-len(ops)/4]
	if len(ops) == 0 {
		return nil, 0, 0
	}

	sums := make(map[string]int64)
	for _, oi := range ops {
		o := spans[oi]
		ivs := []interval{{o.Start, o.End, 0, "core.client"}}
		add := func(s span, within interval, level int, label string) (interval, bool) {
			iv := interval{max(s.Start, within.start), min(s.End, within.end), level, label}
			if iv.end <= iv.start {
				return iv, false
			}
			ivs = append(ivs, iv)
			return iv, true
		}
		// under charges the engine and file calls at the handler's replica
		// that overlap the handler.
		under := func(h span, hiv interval) {
			if byDC[h.At] == nil {
				return
			}
			for level, cs := range byDC[h.At] {
				// No call that started more than the longest call before
				// the handler can still overlap it.
				first := sort.Search(len(cs.idx), func(k int) bool { return spans[cs.idx[k]].Start >= hiv.start-cs.longest })
				for _, ci := range cs.idx[first:] {
					c := spans[ci]
					if c.Start >= hiv.end {
						break
					}
					prefix := "kvstore."
					if level == 1 {
						prefix = "disk."
					}
					add(c, hiv, 5+level, prefix+c.Name)
				}
			}
		}
		for _, si := range sendsOf[o.Op] {
			s := spans[si]
			siv, ok := add(s, ivs[0], 1, "network.client."+strings.TrimPrefix(s.Name, "send."))
			if !ok {
				continue
			}
			for _, hi := range handlersOf[s.ID] {
				h := spans[hi]
				hiv, ok := add(h, siv, 2, "core."+h.Name)
				if !ok {
					continue
				}
				under(h, hiv)
				if h.Name != "handle.submit" || h.Pos == 0 {
					continue
				}
				for _, ri := range roundsAt[posKey{h.Group, h.Pos}] {
					r := spans[ri]
					riv, ok := add(r, hiv, 3, "network.replica."+strings.TrimPrefix(r.Name, "send."))
					if !ok {
						continue
					}
					for _, hi2 := range handlersOf[r.ID] {
						h2 := spans[hi2]
						if h2iv, ok := add(h2, riv, 4, "core."+h2.Name); ok {
							under(h2, h2iv)
						}
					}
				}
			}
		}
		charge(ivs, sums)
	}

	var total int64
	for _, v := range sums {
		total += v
	}
	for label, v := range sums {
		rows = append(rows, stageRow{label, float64(v) / 1e3 / float64(len(ops)), float64(v) / float64(total)})
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a].Stage < rows[b].Stage })
	return rows, float64(total) / 1e3 / float64(len(ops)), len(ops)
}

// charge splits ivs[0] (the op) at every interval boundary and adds each
// piece to the deepest interval covering it; among equals, the one that
// started first (it has been waited on longest).
func charge(ivs []interval, sums map[string]int64) {
	cuts := make([]int64, 0, 2*len(ivs))
	for _, iv := range ivs {
		cuts = append(cuts, iv.start, iv.end)
	}
	sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
	for k := 0; k+1 < len(cuts); k++ {
		lo, hi := cuts[k], cuts[k+1]
		if hi <= lo || lo < ivs[0].start || hi > ivs[0].end {
			continue
		}
		best := 0
		for j, iv := range ivs {
			if iv.start <= lo && iv.end >= hi &&
				(iv.level > ivs[best].level || iv.level == ivs[best].level && iv.start < ivs[best].start) {
				best = j
			}
		}
		sums[ivs[best].label] += hi - lo
	}
}

// printStages writes the table, then how far it is from the untraced run's
// median commit latency as a row of its own.
func printStages(w io.Writer, rows []stageRow, totalUS float64, n int, untracedP50 time.Duration) {
	fmt.Fprintf(w, "stage table: mean self time per committed transaction, middle half by latency (n=%d)\n", n)
	for _, r := range rows {
		fmt.Fprintf(w, "  %-34s %10.1f us  %5.1f%%\n", r.Stage, r.MeanUS, 100*r.Share)
	}
	fmt.Fprintf(w, "  %-34s %10.1f us\n", "= accounted (traced run)", totalUS)
	rest := us(untracedP50) - totalUS
	fmt.Fprintf(w, "  %-34s %10.1f us  %5.1f%% of commit_p50_ms %.4f ms (untraced run)\n",
		"unaccounted", rest, 100*ratio(rest, us(untracedP50)), ms(untracedP50))
}

// spanMetrics turns the traced run's spans and counters into the per-layer
// metrics that only the decorators can measure.
func spanMetrics(t *tracer, spans []span, commits, replicas int) *metricSet {
	m := newMetricSet()
	durs := make(map[string][]time.Duration)
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], time.Duration(s.End-s.Start))
	}
	meanUS := func(metric, name string) {
		m.setN(metric, us(mean(durs[name])), len(durs[name]))
	}
	for _, k := range []string{"readpos", "submit", "accept", "apply", "prepare", "read", "scan"} {
		meanUS("network.send_us."+k, "send."+k)
	}
	for _, k := range []string{"submit", "accept", "apply", "read", "scan"} {
		meanUS("core.handle."+k+"_us", "handle."+k)
	}
	meanUS("disk.append_us", "engine.append")
	meanUS("disk.sync_wait_us", "engine.sync")
	m.setN("disk.fsync_ms", ms(mean(durs["fs.fsync"])), len(durs["fs.fsync"]))

	c := float64(commits)
	m.set("network.msgs_per_commit", ratio(float64(t.sent.Load()), c))
	m.set("network.bytes_per_commit", ratio(float64(t.bytes.Load()), c))
	sends := 0
	for name, d := range durs {
		if strings.HasPrefix(name, "send.") {
			sends += len(d)
		}
	}
	m.set("network.timeout_frac", ratio(float64(t.timeouts.Load()), float64(sends)))
	// A round is one broadcast to every replica.
	rounds := float64(len(durs["send.prepare"])+len(durs["send.accept"])) / float64(replicas)
	m.set("paxos.rounds_per_commit", ratio(rounds, c))
	return m
}
