package core

import (
	"sync"

	"paxoscp/internal/network"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// This file implements per-core service dispatch (DESIGN.md §13). The
// synchronous Handler serves one request per transport goroutine; under a
// multi-group load every request contends on the same scheduler and one
// busy group's slow requests interleave with everyone else's. AsyncHandler
// instead classifies each request by its blocking profile and runs the
// short, store-bound majority on a fixed set of GOMAXPROCS workers keyed by
// group — the same shard function the replog apply pool uses — so a group's
// requests are cache-friendly and a burst on one group cannot occupy more
// than its shard. Work that can legitimately block (applies waiting on the
// watermark, catch-up, snapshots, store scans) gets its own goroutine, and
// submits enter the group pipeline asynchronously, holding no goroutine at
// all while their position replicates.

// dispatchQueueLen bounds one shard worker's request backlog. Overflow does
// not block the transport read loop: an over-full shard spills requests to
// fresh goroutines, degrading to the pre-dispatch behavior instead of
// stalling every group behind one.
const dispatchQueueLen = 256

// dispatchItem pairs a queued handler invocation with its refusal: close()
// drains still-queued items through refuse so their peers get a
// VerdictShutdown refusal instead of a timeout.
type dispatchItem struct {
	run    func()
	refuse func()
}

// dispatcher runs short request handlers on GOMAXPROCS shard workers.
type dispatcher struct {
	workers  []chan dispatchItem
	stopCh   chan struct{}
	stopOnce sync.Once

	// mu closes the enqueue/close race: dispatch holds it shared around the
	// closed check and the (non-blocking) channel send, close holds it
	// exclusively while flipping closed. After close() returns, no new item
	// can land in a queue, so the workers' drain loops see every item that
	// ever enqueued — nothing is dropped without a refusal.
	mu     sync.RWMutex
	closed bool
}

func newDispatcher(n int) *dispatcher {
	if n < 1 {
		n = 1
	}
	d := &dispatcher{workers: make([]chan dispatchItem, n), stopCh: make(chan struct{})}
	for i := range d.workers {
		ch := make(chan dispatchItem, dispatchQueueLen)
		d.workers[i] = ch
		go d.run(ch)
	}
	return d
}

func (d *dispatcher) run(ch chan dispatchItem) {
	for {
		select {
		case it := <-ch:
			it.run()
		case <-d.stopCh:
			// Shutdown: refuse everything still queued. dispatch stopped
			// enqueuing before stopCh closed, so the drain is complete.
			for {
				select {
				case it := <-ch:
					it.refuse()
				default:
					return
				}
			}
		}
	}
}

// dispatch runs fn on group's shard worker, or on its own goroutine when the
// shard's queue is full — the caller (the transport read loop) must never
// block here. After close, refuse is called instead (immediately, on the
// caller's goroutine).
func (d *dispatcher) dispatch(group string, fn, refuse func()) {
	ch := d.workers[replog.GroupShard(group)%uint32(len(d.workers))]
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		refuse()
		return
	}
	select {
	case ch <- dispatchItem{run: fn, refuse: refuse}:
		d.mu.RUnlock()
	default:
		d.mu.RUnlock()
		go fn()
	}
}

// close stops the workers. Requests still queued are drained with their
// refusal (VerdictShutdown), not dropped: before the drain, a peer that
// raced a request against Service.Close paid a full timeout to learn
// nothing. Only called on Service shutdown.
func (d *dispatcher) close() {
	d.stopOnce.Do(func() {
		d.mu.Lock()
		d.closed = true
		d.mu.Unlock()
		close(d.stopCh)
	})
}

// AsyncHandler returns the non-blocking request entry point the transports'
// async registration (network.NewUDPAsync, Sim.EndpointAsync) plugs in.
// Classification:
//
//   - Shard worker: Paxos prepare/accept/apply-notify, read-position,
//     leader claims, log fetches, and reads already covered by the applied
//     watermark — short store-bound work, pinned per group.
//   - Own goroutine: applies (they block on the watermark), reads that need
//     catch-up, snapshots, compaction, stats, and scans (store scans,
//     possibly with catch-up to the pin).
//   - Submits: asynchronous admission into the group's pipeline; the
//     verdict callback fires when replication settles, so a submit holds no
//     goroutine while its position replicates (DESIGN.md §13).
func (s *Service) AsyncHandler() network.AsyncHandler {
	h := s.Handler()
	return func(from string, req network.Message, reply func(network.Message)) {
		// A closing service refuses what is still queued, or arrives, once
		// dispatcher shutdown has begun: the request never ran, so the peer
		// may take it to another replica at once (the pipeline's close does
		// the same for queued submits).
		refuse := func() { reply(network.Refuse(network.VerdictShutdown, "")) }
		switch req.Kind {
		case network.KindSubmit:
			s.handleSubmitAsync(req, reply)
		case network.KindApply, network.KindSnapshot, network.KindCompact, network.KindStats,
			network.KindRangeSnapshot, network.KindMigrate, network.KindScan:
			// Range snapshots and scans are store scans (possibly with
			// catch-up to the pin) and migrate submissions block on
			// replication: all stay off the shard workers.
			go func() { reply(h(from, req)) }()
		case network.KindRead, network.KindReadMulti:
			if req.TS >= 0 && req.TS > s.lastApplied(req.Group) {
				// Ahead of the local log: the handler will catch up, which
				// can wait out peer round trips. Keep it off the workers.
				go func() { reply(h(from, req)) }()
				return
			}
			s.disp.dispatch(req.Group, func() { reply(h(from, req)) }, refuse)
		default:
			s.disp.dispatch(req.Group, func() { reply(h(from, req)) }, refuse)
		}
	}
}

// handleSubmitAsync is handleSubmit without the blocking wait: the verdict
// reaches reply when admission or replication settles it.
func (s *Service) handleSubmitAsync(req network.Message, reply func(network.Message)) {
	entry, err := wal.Decode(req.Payload)
	if err != nil || len(entry.Txns) != 1 {
		reply(network.Status(false, "bad submit payload"))
		return
	}
	s.pipeline(req.Group).SubmitAsync(entry.Txns[0], reply)
}
