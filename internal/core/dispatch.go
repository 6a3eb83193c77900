package core

import (
	"sync"
	"sync/atomic"

	"paxoscp/internal/network"
)

// This file implements service dispatch (DESIGN.md §13), the service's one
// request entry point. AsyncHandler runs each request where its blocking
// profile allows: applies land in the group's log at once and are answered by
// the drain that makes them durable, submits enter the group pipeline
// asynchronously — neither holds a goroutine while it waits — votes over a
// store without an engine are answered where they arrive, and every other
// request runs on a goroutine of its own, as the paper's Transaction Service
// serves each client request in its own service process.

// dispatchItem is one request on its way to Service.handle: what the
// transport handed AsyncHandler, and the handler. Items are pooled, and run
// is bound once, when the item is first made, so a request builds no closure
// and its Message is copied once, into the item.
type dispatchItem struct {
	from   string
	req    network.Message
	reply  func(network.Message)
	handle func(string, network.Message) network.Message
	run    func() // it.serve
}

// dispatchItems holds the pooled items; item makes one when it is empty.
var dispatchItems sync.Pool

// dispatcher serves requests with handle, each on its own goroutine, and
// refuses them once closed.
type dispatcher struct {
	handle func(from string, req network.Message) network.Message
	closed atomic.Bool
}

// newDispatcher returns a dispatcher serving requests with handle.
func newDispatcher(handle func(string, network.Message) network.Message) *dispatcher {
	return &dispatcher{handle: handle}
}

// item takes a pooled item holding one request.
func (d *dispatcher) item(from string, req network.Message, reply func(network.Message)) *dispatchItem {
	it, _ := dispatchItems.Get().(*dispatchItem)
	if it == nil {
		it = new(dispatchItem)
		it.run = it.serve
	}
	it.from, it.req, it.reply, it.handle = from, req, reply, d.handle
	return it
}

// serve answers it with the handler and returns it to the pool.
func (it *dispatchItem) serve() {
	it.reply(it.handle(it.from, it.req))
	it.release()
}

// release clears it, so the pool pins no request's payload, and pools it.
func (it *dispatchItem) release() {
	*it = dispatchItem{run: it.run}
	dispatchItems.Put(it)
}

// spawn serves it on its own goroutine — the caller (the transport read loop,
// or a sender's goroutine for a self-send) must never block here. After
// close, it refuses it with VerdictShutdown instead, on the caller's
// goroutine: the request never ran, so the peer may take it to another
// replica at once rather than wait out a timeout.
func (d *dispatcher) spawn(it *dispatchItem) {
	if d.closed.Load() {
		it.reply(network.Refuse(network.VerdictShutdown, ""))
		it.release()
		return
	}
	go it.run()
}

// inline serves a request on the caller's goroutine, for a handler that
// cannot block there. After close it refuses it with VerdictShutdown, as
// spawn does.
func (d *dispatcher) inline(from string, req network.Message, reply func(network.Message)) {
	if d.closed.Load() {
		reply(network.Refuse(network.VerdictShutdown, ""))
		return
	}
	reply(d.handle(from, req))
}

// close makes every later spawn and inline a refusal. Only called on Service
// shutdown.
func (d *dispatcher) close() { d.closed.Store(true) }

// AsyncHandler returns the non-blocking request entry point the transports'
// async registration (network.NewUDPAsync, Sim.EndpointAsync) plugs in:
//
//   - Applies run inline. Landing the entry in the log is a validation, a
//     decode and a queue insert, and the reply fires from the drain that
//     makes it durable (Service.handleApply), so no goroutine waits for it.
//   - Submits and migration handoffs: asynchronous admission into the
//     group's pipeline; the verdict callback fires when replication settles,
//     so a submit holds no goroutine while its position replicates
//     (DESIGN.md §13).
//   - Paxos prepare/accept run inline when the store has no engine: the
//     acceptor's load and compare-and-swap then take row and shard locks
//     and nothing else, so the vote is answered before AsyncHandler
//     returns. Over a disk engine the CAS waits for its fsync, and a vote
//     runs on its own goroutine like the kinds below.
//   - Every other kind runs on its own goroutine: reads (with catch-up when
//     ahead of the local log), read-position, leader claims, log fetches,
//     snapshots, compaction, stats and scans.
//
// A closing service refuses a request that arrives once dispatcher shutdown
// has begun (the pipeline's close does the same for queued submits, and a
// closed log refuses an apply it has not logged).
func (s *Service) AsyncHandler() network.AsyncHandler {
	return func(from string, req network.Message, reply func(network.Message)) {
		switch req.Kind {
		case network.KindSubmit:
			s.handleSubmit(req, reply)
		case network.KindMigrate:
			s.handleMigrate(req, reply)
		case network.KindApply:
			s.handleApply(req, reply)
		case network.KindPrepare, network.KindAccept:
			if s.store.Engine() == nil {
				s.disp.inline(from, req, reply)
			} else {
				s.disp.spawn(s.disp.item(from, req, reply))
			}
		default:
			s.disp.spawn(s.disp.item(from, req, reply))
		}
	}
}
