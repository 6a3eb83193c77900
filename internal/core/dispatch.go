package core

import (
	"sync"

	"paxoscp/internal/network"
	"paxoscp/internal/replog"
)

// This file implements per-core service dispatch (DESIGN.md §13), the
// service's one request entry point. AsyncHandler classifies each request by
// its blocking profile and runs the short, store-bound majority on a fixed
// set of GOMAXPROCS workers keyed by group — the same shard function the
// replog apply pool uses — so a group's requests are cache-friendly and a
// burst on one group cannot occupy more than its shard, where one goroutine
// per request would let every group's requests contend on the scheduler.
// Work that can legitimately block (catch-up, snapshots, store scans) gets
// its own goroutine. Submits enter the group pipeline asynchronously, and
// applies land in the group's log at once and are answered by the drain that
// makes them durable: neither holds a goroutine while it waits.

// dispatchQueueLen bounds one shard worker's request backlog. Overflow does
// not block the transport read loop: an over-full shard spills requests to
// fresh goroutines, degrading to the pre-dispatch behavior instead of
// stalling every group behind one.
const dispatchQueueLen = 256

// dispatchItem is one request waiting for Service.handle: what the
// transport handed AsyncHandler, nothing else. Items are pooled and queued by
// pointer, so a request builds no closure and its Message is copied once,
// into the item; a queue of Message values would pin every slot's 232 bytes
// for the life of the service. close() drains still-queued items with a
// VerdictShutdown refusal instead of a timeout.
type dispatchItem struct {
	from  string
	req   network.Message
	reply func(network.Message)
}

var dispatchItems = sync.Pool{New: func() any { return new(dispatchItem) }}

// dispatcher runs short request handlers on GOMAXPROCS shard workers.
type dispatcher struct {
	handle   func(from string, req network.Message) network.Message
	workers  []chan *dispatchItem
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

// newDispatcher starts n shard workers serving requests with handle.
func newDispatcher(n int, handle func(string, network.Message) network.Message) *dispatcher {
	if n < 1 {
		n = 1
	}
	d := &dispatcher{handle: handle, workers: make([]chan *dispatchItem, n), stopCh: make(chan struct{})}
	for i := range d.workers {
		ch := make(chan *dispatchItem, dispatchQueueLen)
		d.workers[i] = ch
		go d.run(ch)
	}
	return d
}

// item takes a pooled item holding one request.
func (d *dispatcher) item(from string, req network.Message, reply func(network.Message)) *dispatchItem {
	it := dispatchItems.Get().(*dispatchItem)
	it.from, it.req, it.reply = from, req, reply
	return it
}

// serve answers it with the handler and returns it to the pool.
func (d *dispatcher) serve(it *dispatchItem) {
	it.reply(d.handle(it.from, it.req))
	it.release()
}

// refuse answers it with VerdictShutdown and returns it to the pool.
func (it *dispatchItem) refuse() {
	it.reply(network.Refuse(network.VerdictShutdown, ""))
	it.release()
}

// release clears it, so the pool pins no request's payload, and pools it.
func (it *dispatchItem) release() {
	*it = dispatchItem{}
	dispatchItems.Put(it)
}

func (d *dispatcher) run(ch chan *dispatchItem) {
	for {
		select {
		case it := <-ch:
			d.serve(it)
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

// dispatch serves it on group's shard worker, or on its own goroutine when
// the shard's queue is full — the caller (the transport read loop) must never
// block here. After close, it is refused instead (immediately, on the
// caller's goroutine).
func (d *dispatcher) dispatch(group string, it *dispatchItem) {
	d.send(d.workers[replog.GroupShard(group)%uint32(len(d.workers))], it)
}

// spawn serves it on its own goroutine, or refuses it after close.
func (d *dispatcher) spawn(it *dispatchItem) { d.send(nil, it) }

// send queues it on ch, or serves it on its own goroutine when ch is full or
// nil (a send on a nil channel is never ready); after close, it refuses it.
func (d *dispatcher) send(ch chan *dispatchItem, it *dispatchItem) {
	d.mu.RLock()
	if d.closed {
		d.mu.RUnlock()
		it.refuse()
		return
	}
	select {
	case ch <- it:
		d.mu.RUnlock()
	default:
		d.mu.RUnlock()
		go d.serve(it)
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
//   - Inline: applies. Landing the entry in the log is a validation, a
//     decode and a queue insert, and the reply fires from the drain that
//     makes it durable (Service.handleApply), so no goroutine waits for it —
//     and none waits behind a shard worker busy with an accept's sync.
//   - Shard worker: Paxos prepare/accept, read-position, leader claims, log
//     fetches, and reads already covered by the applied watermark — short
//     store-bound work, pinned per group.
//   - Own goroutine: reads that need catch-up, snapshots, compaction, stats,
//     and scans (store scans, possibly with catch-up to the pin).
//   - Submits and migration handoffs: asynchronous admission into the
//     group's pipeline; the verdict callback fires when replication settles,
//     so a submit holds no goroutine while its position replicates
//     (DESIGN.md §13).
//
// A closing service refuses what is still queued, or arrives, once
// dispatcher shutdown has begun: the request never ran, so the peer may take
// it to another replica at once (the pipeline's close does the same for
// queued submits, and a closed log refuses an apply it has not logged).
func (s *Service) AsyncHandler() network.AsyncHandler {
	return func(from string, req network.Message, reply func(network.Message)) {
		switch req.Kind {
		case network.KindSubmit:
			s.handleSubmit(req, reply)
		case network.KindMigrate:
			s.handleMigrate(req, reply)
		case network.KindApply:
			s.handleApply(req, reply)
		case network.KindSnapshot, network.KindCompact, network.KindStats,
			network.KindRangeSnapshot, network.KindScan:
			// Range snapshots and scans are store scans (possibly with
			// catch-up to the pin): all stay off the shard workers.
			s.disp.spawn(s.disp.item(from, req, reply))
		case network.KindRead, network.KindReadMulti:
			if req.TS >= 0 && req.TS > s.lastApplied(req.Group) {
				// Ahead of the local log: the handler will catch up, which
				// can wait out peer round trips. Keep it off the workers.
				s.disp.spawn(s.disp.item(from, req, reply))
				return
			}
			s.disp.dispatch(req.Group, s.disp.item(from, req, reply))
		default:
			s.disp.dispatch(req.Group, s.disp.item(from, req, reply))
		}
	}
}
