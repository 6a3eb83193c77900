package replog

import (
	"sync"

	"paxoscp/internal/kvstore"
)

// Pool is what drains Logs. It shards drain scheduling for the Logs opened
// on it across a fixed set of workers keyed by group, so one group with a
// deep pending run cannot serialize every other group's watermark advance
// behind a single goroutine — while each group's own entries still apply
// strictly in log order, because a group is pinned to one shard and a worker
// drains one log at a time (DESIGN.md §13). Per-group ordering is what the
// fencing invariants F1–F3 and the write invariants W1–W4 rest on;
// cross-group ordering was never promised.
type Pool struct {
	workers  []applyWorker
	stopCh   chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

type applyWorker struct {
	mu    sync.Mutex
	queue []*Log        // logs with (possibly) undrained pending entries
	wake  chan struct{} // capacity 1
}

// NewPool starts a Pool of n workers (at least one).
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{workers: make([]applyWorker, n), stopCh: make(chan struct{})}
	for i := range p.workers {
		p.workers[i].wake = make(chan struct{}, 1)
		p.wg.Add(1)
		go p.run(&p.workers[i])
	}
	return p
}

// Open is the package's Open with the Log draining on p instead of a pool
// of its own. Close the Logs opened on p before p.
func (p *Pool) Open(store *kvstore.Store, group string) *Log {
	return open(store, group, p)
}

// schedule queues l on its shard's worker unless it is already queued.
// Callers may hold l.mu: the lock order is l.mu → w.mu only (the worker
// never holds w.mu while taking l.mu).
func (p *Pool) schedule(l *Log) {
	if !l.sched.CompareAndSwap(false, true) {
		return // already queued; the pending drain will absorb this notify
	}
	w := &p.workers[l.shard%uint32(len(p.workers))]
	w.mu.Lock()
	w.queue = append(w.queue, l)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (p *Pool) run(w *applyWorker) {
	defer p.wg.Done()
	for {
		w.mu.Lock()
		var l *Log
		if len(w.queue) > 0 {
			l = w.queue[0]
			copy(w.queue, w.queue[1:])
			w.queue[len(w.queue)-1] = nil
			w.queue = w.queue[:len(w.queue)-1]
		}
		w.mu.Unlock()
		if l == nil {
			select {
			case <-w.wake:
			case <-p.stopCh:
				return
			}
			continue
		}
		// Clear the queued mark before draining: a notify landing during the
		// drain re-queues the log, and drain itself loops until no contiguous
		// pending run remains, so a notify in the gap between the Store and
		// the drain's last pass is never lost.
		l.sched.Store(false)
		if !l.stopped.Load() {
			l.drain()
		}
	}
}

// Close stops the workers after they finish the log currently draining.
// Queued logs that were already Closed are skipped, not drained.
func (p *Pool) Close() {
	p.stop()
	p.wg.Wait()
}

// stop tells the workers to exit once idle and does not wait for them.
func (p *Pool) stop() { p.stopOnce.Do(func() { close(p.stopCh) }) }

// groupShard maps a group name to a stable shard index (FNV-1a), so the
// pool drains a given group's log on one worker.
func groupShard(group string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(group); i++ {
		h ^= uint32(group[i])
		h *= 16777619
	}
	return h
}
