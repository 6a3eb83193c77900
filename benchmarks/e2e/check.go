package main

import (
	"context"
	"fmt"
	"time"

	"paxoscp/internal/history"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// gate is the outcome of the correctness checks that follow every measured
// phase. Any violation makes the run incorrect and the exit code non-zero.
type gate struct {
	violations  []string
	checkTime   time.Duration // collecting the logs and running the history checker
	recoverTime time.Duration // the three disk.Open calls after the crash (durable only)
	recoverRows int
}

func (g *gate) violate(format string, args ...any) {
	if len(g.violations) < 20 {
		g.violations = append(g.violations, fmt.Sprintf(format, args...))
	}
}

// check runs the correctness gate on a quiesced deployment (no client op in
// flight). It ends with the deployment no longer serving.
//
// In memory: every replica runs Service.Recover per group, then
// history.CheckQuiesced validates the clients' commits against every
// replica's log. On disk: all three replicas lose power first
// (Engine.Crash discards whatever the last fsync did not cover), each data
// dir is opened again, every acknowledged commit must be in at least two of
// the recovered logs at its position, and the same history check runs on
// the recovered logs — without Recover, so a commit that was acknowledged
// before it was durable on a majority cannot be papered over.
func (d *deployment) check(ctx context.Context) gate {
	var g gate
	commits := history.ByGroup(d.rec.Commits())
	logs := make(map[string]map[string]map[int64]wal.Entry) // group -> dc -> log
	horizon := make(map[string]int64)
	for _, grp := range d.place.Groups() {
		logs[grp] = make(map[string]map[int64]wal.Entry)
	}

	if d.s.durable {
		for _, r := range d.replicas {
			r.engine.Crash()
		}
		d.stopServing()
		for _, r := range d.replicas {
			r.store.Close()
		}
		start := time.Now()
		for _, r := range d.replicas {
			if err := d.openStore(r); err != nil {
				g.violate("recovery: %v", err)
				return g
			}
			g.recoverRows += r.store.Len()
		}
		g.recoverTime = time.Since(start)
		start = time.Now()
		for _, grp := range d.place.Groups() {
			for _, r := range d.replicas {
				lg := replog.Open(r.store, grp)
				logs[grp][r.dc] = lg.Snapshot()
				horizon[grp] = max(horizon[grp], lg.Applied())
				lg.Close()
			}
			for _, c := range commits[grp] {
				if c.ReadOnly() {
					continue
				}
				copies := 0
				for _, log := range logs[grp] {
					if e, ok := log[c.Pos]; ok && e.Contains(c.ID) {
						copies++
					}
				}
				if copies < 2 {
					g.violate("durability: acknowledged commit %s at %s/%d survived the crash on %d of %d replicas",
						c.ID, grp, c.Pos, copies, len(d.replicas))
				}
			}
		}
		g.checkTime = time.Since(start)
	} else {
		for _, grp := range d.place.Groups() {
			for _, r := range d.replicas {
				rctx, cancel := context.WithTimeout(ctx, 30*time.Second)
				err := r.svc.Recover(rctx, grp)
				cancel()
				if err != nil {
					g.violate("recover %s at %s: %v", grp, r.dc, err)
				}
			}
		}
		start := time.Now()
		for _, grp := range d.place.Groups() {
			for _, r := range d.replicas {
				logs[grp][r.dc] = r.svc.LogSnapshot(grp)
				horizon[grp] = max(horizon[grp], r.svc.LastApplied(grp))
			}
		}
		g.checkTime = time.Since(start)
		d.stopServing()
	}

	start := time.Now()
	for _, grp := range d.place.Groups() {
		for _, v := range history.CheckQuiesced(logs[grp], horizon[grp], commits[grp]) {
			g.violate("history %s: %s", grp, v)
		}
	}
	g.checkTime += time.Since(start)
	return g
}
