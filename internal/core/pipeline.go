package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"paxoscp/internal/deadline"
	"paxoscp/internal/network"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// This file implements the master's pipelined submit path (DESIGN.md §8).
// The pre-pipeline master serialized every submitted transaction through a
// per-group sequencer lock held across the whole replication round trip, so
// one WAN Paxos round gated the group's entire submit throughput. The
// pipeline generalizes the paper's two Paxos-CP mechanisms to the
// leader-based design:
//
//   - Combination: transactions queued while earlier positions replicate are
//     merged into a single multi-transaction log entry (one Paxos instance
//     commits the whole batch), exactly the paper's §5 combination applied
//     at the master instead of in the client's value-selection rule.
//   - Promotion: a batch whose position is decided with a foreign value (a
//     failover race, recovery interference) is re-queued to compete for the
//     next position instead of aborting; only transactions whose reads the
//     foreign entry invalidated abort.
//
// Up to SubmitWindow positions replicate concurrently; the pipeline keeps
// their encoded entries as its in-flight window, conflict checks run
// speculatively against it — every entry they walk, in the window or in the
// log, is asked from its bytes (wal.Contains, wal.Invalidates) — and replog's
// out-of-order Append plus watermark apply retire decided positions in
// order. The pipeline assumes one active master per group at a time (the
// paper's long-term master, §7); see DESIGN.md §8 for the invariants and the
// failover analysis.

const (
	// DefaultSubmitWindow is how many Paxos positions the master keeps in
	// flight concurrently per group. 1 reproduces the serial master.
	DefaultSubmitWindow = 8
	// DefaultSubmitCombine caps how many queued transactions are combined
	// into one multi-transaction log entry.
	DefaultSubmitCombine = 4
	// submitAttempts caps how many positions one submission may compete for
	// (promotion budget, mirroring the serial path's retry cap).
	submitAttempts = 8
	// DefaultSubmitQueue bounds how many submissions may wait in one group's
	// pipeline queue. Beyond it, admission control fails new submissions fast
	// with VerdictOverloaded instead of stacking unbounded latency (DESIGN.md
	// §13). Promotion re-enqueues are exempt — an admitted transaction is
	// never dropped by the cap.
	DefaultSubmitQueue = 256
)

// pendingSubmit is one submitted transaction waiting in the pipeline. It
// lives in exactly one place at a time — the queue, a dispatch batch, or an
// in-flight entry's member list — so it receives exactly one verdict.
type pendingSubmit struct {
	txn      wal.TxnView // the submit's bytes, its entry spliced from them
	attempts int         // positions competed for so far

	// handoff, when non-nil, marks a migration control entry (DESIGN.md
	// §15): the pipeline places it alone — never combined with transactions
	// — as an entry whose Handoff field carries the phase record. txn is
	// zero for these.
	handoff *wal.Handoff

	// deliver receives the verdict exactly once: settled arbitrates between
	// the pipeline's verdict and the budget's expiry, and whichever loses is
	// dropped. deliver may be a transport reply callback (the async submit
	// path) — it must not be called twice.
	deliver func(network.Message)
	settled atomic.Bool
	// budget is the submission's deadline, armed for 4 message timeouts
	// when it is admitted and stopped by the first verdict.
	budget deadline.Entry
}

// reply delivers the verdict, once.
func (ps *pendingSubmit) reply(m network.Message) {
	if !ps.settled.CompareAndSwap(false, true) {
		return
	}
	ps.budget.Stop()
	ps.deliver(m)
}

// Expire answers a submission whose budget ran out with the timeout verdict.
// A pendingSubmit is armed once and never reused, so a late Expire finds the
// verdict already given.
func (ps *pendingSubmit) Expire() {
	if ps.handoff != nil {
		ps.reply(network.Status(false, "master: handoff timed out in pipeline"))
		return
	}
	ps.reply(network.Status(false, "master: submit timed out in pipeline"))
}

// pipeline is one group's submit path at the master: a queue of waiting
// submissions drained by a single dispatcher goroutine that combines them
// into entries and launches one replication goroutine per position, bounded
// by the in-flight window. A full window stops the dispatcher; the
// resolution that frees a slot starts it again (kickLocked), so nothing
// parks waiting for room.
type pipeline struct {
	svc        *Service
	group      string
	lg         *replog.Log
	limit      int // in-flight window size (SubmitWindow)
	maxCombine int
	// room is the longest entry whose accept, apply, vote and fetch reply
	// each fit one datagram (network.PayloadRoom): combination stops short
	// of it, and a transaction that cannot fit alone is refused.
	room int

	mu      sync.Mutex
	queue   []*pendingSubmit
	running bool // dispatcher goroutine live
	closed  bool
	// inflight holds the encoded entry proposed at each position whose
	// Paxos instance has not resolved; issued is the highest position ever
	// placed, so none is issued twice (invariant W1).
	inflight map[int64]string
	issued   int64
	// epoch is the master epoch this pipeline stamps entries with (0 until
	// mastership is claimed). deposed is set when a higher epoch is
	// observed: the pipeline drains its in-flight window with fail verdicts
	// — never promotion — and refuses new batches with a hint at the new
	// master (DESIGN.md §11, deposed-master drain).
	epoch   int64
	deposed bool

	// fastOff is the fast-path breaker: unix nanos until which replication
	// skips the unanimous fast round. Opened when a fast round fails —
	// typically an unreachable peer, which makes unanimity impossible and
	// would add one timeout of doomed waiting per position.
	fastOff atomic.Int64
}

// pipeline returns group's submit pipeline, creating it on first use.
func (s *Service) pipeline(group string) *pipeline {
	s.mu.Lock()
	defer s.mu.Unlock()
	g := s.groupLocked(group)
	if g.pipe == nil {
		g.pipe = &pipeline{
			svc:        s,
			group:      group,
			lg:         g.log,
			limit:      s.submitWindow,
			maxCombine: s.submitCombine,
			room:       s.entryRoom(group),
			inflight:   make(map[int64]string),
			closed:     s.closed,
		}
	}
	return g.pipe
}

// entryRoom is the longest entry of group whose messages fit one datagram
// between any two of the service's peers: PayloadRoom for the longest name.
func (s *Service) entryRoom(group string) int {
	name := s.dc
	if s.transport != nil {
		for _, peer := range s.transport.Peers() {
			if len(peer) > len(name) {
				name = peer
			}
		}
	}
	return network.PayloadRoom(group, name)
}

// SubmitAsync runs admission control and queues the transaction; deliver
// receives exactly one verdict — the pipeline's, or a timeout once the
// master-side budget expires. The caller's goroutine is released
// immediately: a submit in flight holds no goroutine while its position
// replicates (DESIGN.md §13). txn must not alias a buffer reused meanwhile.
func (p *pipeline) SubmitAsync(txn wal.TxnView, deliver func(network.Message)) {
	ps := &pendingSubmit{txn: txn, deliver: deliver}
	if n := wal.MaxHeaderLen + txn.Size(); n > p.room {
		// No entry could carry it: placed, it would be a vote no follower
		// can receive, and its position a hole nothing can learn.
		ps.reply(network.Status(false, fmt.Sprintf("master: a transaction of %d bytes does not fit one %d-byte log entry", n, p.room)))
		return
	}
	if err := p.svc.replicaFault(); err != nil {
		// Fail-stopped storage: refuse before any protocol work, with the
		// verdict that tells the client to go elsewhere (health.go). The
		// check repeats in place() for submissions already queued when the
		// engine died.
		ps.reply(network.Refuse(network.VerdictReplicaFailed, err.Error()))
		return
	}
	ps.budget.Arm(4*p.svc.timeout, ps)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		ps.reply(network.Refuse(network.VerdictShutdown, ""))
		return
	}
	if limit := p.svc.submitQueue; limit > 0 && len(p.queue) >= limit {
		// Nothing reached the log; the queue depth rides along as a
		// backpressure hint.
		refusal := network.Refuse(network.VerdictOverloaded, "")
		refusal.TS = int64(len(p.queue))
		p.mu.Unlock()
		ps.reply(refusal)
		return
	}
	p.queue = append(p.queue, ps)
	p.kickLocked()
	p.mu.Unlock()
}

// enqueue adds batch to the queue — at the front, preserving batch order,
// for a promoted batch re-competing — and starts the dispatcher if the
// window has room. It reports false when the pipeline is closed. Promotion
// re-enqueues bypass the admission cap: these transactions were already
// admitted and must receive a pipeline verdict, not an overload refusal.
func (p *pipeline) enqueue(front bool, batch ...*pendingSubmit) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	if front {
		q := make([]*pendingSubmit, 0, len(batch)+len(p.queue))
		q = append(q, batch...)
		p.queue = append(q, p.queue...)
	} else {
		p.queue = append(p.queue, batch...)
	}
	p.kickLocked()
	return true
}

// ready reports whether the dispatcher has a batch it may place now: one
// queued, the pipeline open and a window slot free. Requires p.mu.
func (p *pipeline) ready() bool {
	return len(p.queue) > 0 && !p.closed && len(p.inflight) < p.limit
}

// kickLocked starts the dispatcher goroutine unless it runs or has nothing
// to place. It is the one place the dispatcher starts: on a submit, on a
// re-enqueue, and on the resolution that frees a window slot. Requires p.mu.
func (p *pipeline) kickLocked() {
	if !p.running && p.ready() {
		p.running = true
		go p.dispatch()
	}
}

// close refuses every queued and future submission with VerdictShutdown —
// none of them was placed, so nothing of theirs reached the log. In-flight
// replication goroutines run to completion on their own contexts.
func (p *pipeline) close() {
	p.mu.Lock()
	queued := p.queue
	p.queue = nil
	p.closed = true
	p.mu.Unlock()
	p.fail(queued, network.Refuse(network.VerdictShutdown, ""))
}

// dispatch drains the queue: one batch per iteration, each placed at its own
// log position. Exits when the queue empties or the window fills
// (kickLocked restarts it).
func (p *pipeline) dispatch() {
	for {
		batch := p.take()
		if len(batch) == 0 {
			return
		}
		p.place(batch)
	}
}

// take removes up to maxCombine submissions from the queue head — no more
// than an entry of room bytes holds — or marks the dispatcher stopped and
// returns nil when there is nothing it may place.
// A batch taken owns a window slot until place registers its position or
// drops it: only this one dispatcher adds to the window, so the room seen
// here can only grow before then.
func (p *pipeline) take() []*pendingSubmit {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.ready() {
		p.running = false
		return nil
	}
	n := len(p.queue)
	if n > p.maxCombine {
		n = p.maxCombine
	}
	// Handoff entries never combine: one travels alone, and a batch of
	// transactions stops short of one (DESIGN.md §15) — and short of the
	// transaction that would carry its entry past room bytes. The first
	// always fits: SubmitAsync refused any that does not alone.
	if p.queue[0].handoff != nil {
		n = 1
	} else {
		size := wal.MaxHeaderLen + p.queue[0].txn.Size()
		for i := 1; i < n; i++ {
			if size += p.queue[i].txn.Size(); p.queue[i].handoff != nil || size > p.room {
				n = i
				break
			}
		}
	}
	batch := make([]*pendingSubmit, n)
	copy(batch, p.queue)
	p.queue = append(p.queue[:0], p.queue[n:]...)
	return batch
}

// ensureMastership makes sure this service holds the group's mastership
// before a batch is placed. It adopts an epoch the service already holds,
// refuses with VerdictNotMaster while another datacenter's lease is live, and
// otherwise claims the next epoch — on its own budget, NOT the batch's
// context (the claim must outlive the submissions that triggered it). It reports whether placement may proceed; when it returns false the
// batch has NOT been answered — the caller replies.
func (p *pipeline) ensureMastership() (ok bool, refusal network.Message) {
	st, leaseValid := p.svc.Mastership(p.group)
	if st.Master == p.svc.dc {
		p.setEpoch(st.Epoch)
		return true, network.Message{}
	}
	if st.Master == "" || !leaseValid {
		// Unclaimed group, or an expired lease: claim the next epoch. The
		// first submit to a fresh master triggers this — mastership is lazy.
		// The claim gets its own budget (catch-up against unreachable peers
		// plus the replication round can outlast one batch's): the
		// submissions that triggered it may time out, but the claim completes
		// and every later batch finds mastership held.
		cctx := deadline.Start(context.Background(), p.svc.leaseDuration()+4*p.svc.timeout)
		defer cctx.End()
		epoch, err := p.svc.ClaimMastership(cctx, p.group)
		if err == nil {
			p.setEpoch(epoch)
			return true, network.Message{}
		}
		if st, _ = p.lg.LeaseState(); st.Master == "" || st.Master == p.svc.dc {
			return false, network.Status(false, "master claim failed: "+err.Error())
		}
	}
	// Another datacenter holds the group — its lease is live, or it won the
	// claim just lost: refuse, with the holder and the prevailing epoch as the
	// hint, instead of dueling. (A deposed master lands here on every later
	// batch.)
	refusal = network.Refuse(network.VerdictNotMaster, "")
	refusal.Value, refusal.Epoch = st.Master, st.Epoch
	return false, refusal
}

func (p *pipeline) setEpoch(epoch int64) {
	p.mu.Lock()
	if epoch > p.epoch {
		p.epoch = epoch
		p.deposed = false
	}
	p.mu.Unlock()
}

// noteDeposed records that a higher epoch was observed: the pipeline stops
// placing and promoting until mastership is re-established.
func (p *pipeline) noteDeposed() {
	p.mu.Lock()
	p.deposed = true
	p.mu.Unlock()
}

func (p *pipeline) isDeposed() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.deposed
}

// place admits a batch at the next log position — speculative conflict
// check, combination into one entry — and launches its replication.
func (p *pipeline) place(batch []*pendingSubmit) {
	ctx := deadline.Start(context.Background(), 4*p.svc.timeout)
	defer ctx.End()

	if err := p.svc.replicaFault(); err != nil {
		// The engine died while this batch sat in the queue. Placing it
		// would replicate entries this replica can never apply — and, worse,
		// keep refreshing the dead master's lease at every peer. Drain with
		// the definitive local refusal instead (health.go).
		p.fail(batch, network.Refuse(network.VerdictReplicaFailed, err.Error()))
		return
	}

	if ok, refusal := p.ensureMastership(); !ok {
		p.fail(batch, refusal)
		return
	}
	p.mu.Lock()
	epoch := p.epoch
	p.mu.Unlock()

	// A client may have read at a position this master has not applied —
	// possible right after failover. Catch up before conflict checking.
	var maxRead int64
	for _, ps := range batch {
		if ps.txn.ReadPos > maxRead {
			maxRead = ps.txn.ReadPos
		}
	}
	if maxRead > p.lg.Applied() {
		if err := p.svc.CatchUp(ctx, p.group, maxRead); err != nil {
			p.fail(batch, network.Status(false, fmt.Sprintf("master behind client: %v", err)))
			return
		}
	}

	// The position is picked after catch-up: the new position must sit
	// above everything issued or decided so far (invariant W1).
	pos := p.nextPos()

	// Admission and combination, in arrival order: each transaction is
	// checked against the full log suffix after its read position —
	// applied, decided-pending, and in-flight speculative entries alike —
	// and against the entry under construction (invariant W2). Admitted
	// transactions are spliced into one multi-transaction entry; the list
	// order is serializable by construction.
	handoff := batch[0].handoff
	var stack [DefaultSubmitCombine]wal.TxnView
	txns, members := stack[:0], batch[:0]
	if handoff != nil {
		// A handoff entry travels alone (take() guarantees the singleton
		// batch): it has no reads to conflict-check and no writes to admit.
		members = batch
	} else {
		// A transaction the migration rules (replog M1/M2, DESIGN.md §15)
		// would void at apply fails fast. Only an optimization: apply-time
		// voiding stays the safety net for entries already in flight when a
		// handoff applies.
		fence := p.lg.Fence()
		for _, ps := range batch {
			if to, voided := fence.Voids(ps.txn); voided {
				ps.reply(migrationVerdict(to))
				continue
			}
			verdict, at, err := p.admit(ctx, ps.txn, pos, txns)
			switch {
			case err != nil:
				ps.reply(network.Status(false, err.Error()))
			case verdict == admitConflict:
				ps.reply(network.Refuse(network.VerdictConflict, ""))
			case verdict == admitInFlight:
				ps.reply(network.Refuse(network.VerdictDuplicateInFlight, ""))
			case verdict == admitDecided:
				go p.settleDuplicate(ps, at)
			default:
				txns = append(txns, ps.txn)
				members = append(members, ps)
			}
		}
	}
	if len(members) == 0 {
		return
	}
	raw := wal.Splice(epoch, handoff, txns)
	p.mu.Lock()
	if p.closed {
		// Closed while the batch was being admitted: nothing of it has
		// reached the log yet.
		p.mu.Unlock()
		p.fail(members, network.Refuse(network.VerdictShutdown, ""))
		return
	}
	p.inflight[pos] = view(raw)
	p.issued = pos
	p.mu.Unlock()
	go p.replicate(pos, epoch, raw, members)
}

// view returns an entry this service encoded as a string sharing its bytes,
// for a Reader to walk. Nothing writes an encoded entry once it is sent: a
// transport's request is read-only (network.AsyncHandler), and the log
// compares or copies what it appends.
func view(encoded []byte) string {
	return unsafe.String(unsafe.SliceData(encoded), len(encoded))
}

// SubmitHandoffAsync queues a migration handoff entry for placement
// (DESIGN.md §15). It bypasses the admission cap — a saturated data plane
// must not starve the migration control plane — but pays the same verdict
// budget as any submit. The OK verdict's TS carries the entry's log
// position. h is the pipeline's once passed: the entry is spliced from it.
func (p *pipeline) SubmitHandoffAsync(h *wal.Handoff, deliver func(network.Message)) {
	ps := &pendingSubmit{handoff: h, deliver: deliver}
	if err := p.svc.replicaFault(); err != nil {
		ps.reply(network.Refuse(network.VerdictReplicaFailed, err.Error()))
		return
	}
	ps.budget.Arm(4*p.svc.timeout, ps)
	if !p.enqueue(false, ps) {
		ps.reply(network.Refuse(network.VerdictShutdown, ""))
	}
}

// nextPos returns the next position to propose at: above every position this
// pipeline ever issued and every position known decided locally (so a fresh
// entry is never placed below one the master has not absorbed).
func (p *pipeline) nextPos() int64 {
	p.mu.Lock()
	pos := p.issued
	p.mu.Unlock()
	if d := p.lg.DecidedMax(); d > pos {
		pos = d
	}
	return pos + 1
}

// admission is admit's verdict on one submission.
type admission int

const (
	admitOK       admission = iota // place it in the entry under construction
	admitConflict                  // a later entry wrote a key it read: abort
	// admitInFlight and admitDecided mark a resubmission (invariant W5): an
	// entry above the transaction's read position already carries its ID —
	// still replicating, or decided at the returned position. A client that
	// lost a verdict resubmits the same transaction; placing it again would
	// commit it twice. An attempt still replicating has no fate yet, so there
	// is nothing to answer and nothing safe to place: VerdictDuplicateInFlight,
	// retryable after a beat.
	admitInFlight
	admitDecided
)

// admit runs the speculative fine-grained conflict check for txn competing
// at pos with soFar admitted ahead of it in the same entry: the transaction
// aborts iff some entry after its read position — or an earlier transaction
// in its own entry — wrote a key it read. A hole below the decided ceiling
// is resolved before checking so admission never runs against unknown
// history. The same walk finds an earlier attempt of txn itself (a
// resubmission carries the same read position, so every earlier placement
// lies inside the walked range); one that was fenced at apply committed
// nothing and is stepped over. Each entry walked — in the window, pending or
// applied in the log — and each transaction admitted so far is asked from
// its bytes.
func (p *pipeline) admit(ctx context.Context, txn wal.TxnView, pos int64, soFar []wal.TxnView) (admission, int64, error) {
	for q := txn.ReadPos + 1; q < pos; q++ {
		p.mu.Lock()
		prev, inFlight := p.inflight[q]
		p.mu.Unlock()
		ok := inFlight
		if !ok {
			prev, ok = p.lg.EntryBytes(q)
		}
		if !ok {
			var err error
			if prev, err = p.resolveHole(ctx, q); err != nil {
				return admitOK, 0, fmt.Errorf("log hole at %d: %v", q, err)
			}
		}
		if txn.ID != "" && wal.Contains(prev, txn.ID) {
			switch {
			case inFlight:
				return admitInFlight, q, nil
			case q > p.lg.Applied() || !p.lg.Voided(q):
				return admitDecided, q, nil
			}
			continue
		}
		if wal.Invalidates(prev, txn) {
			return admitConflict, 0, nil
		}
	}
	if txn.ID != "" && slices.ContainsFunc(soFar, func(t wal.TxnView) bool { return t.ID == txn.ID }) {
		return admitInFlight, pos, nil
	}
	if slices.ContainsFunc(soFar, func(t wal.TxnView) bool { return t.Invalidates(txn) }) {
		return admitConflict, 0, nil
	}
	return admitOK, 0, nil
}

// settleDuplicate answers a resubmission with the verdict its earlier
// attempt, decided at pos, earned: the apply-time record says whether that
// entry was fenced (nothing committed; the caller may resubmit, and admit
// will step over the fenced entry), voided by a migration rule, or
// committed.
func (p *pipeline) settleDuplicate(ps *pendingSubmit, pos int64) {
	ctx := deadline.Start(context.Background(), 4*p.svc.timeout)
	defer ctx.End()
	if err := p.lg.WaitApplied(ctx, pos); err != nil {
		ps.reply(network.Status(false, "earlier attempt's verdict unavailable: "+err.Error()))
		return
	}
	raw, _ := p.lg.EntryBytes(pos)
	entry, _ := wal.NewReader(raw)
	switch to, moved := p.lg.MovedTxn(pos, ps.txn.ID); {
	case p.lg.Voided(pos):
		ps.reply(network.Status(false, "earlier attempt was fenced; resubmit"))
	case moved:
		ps.reply(migrationVerdict(to))
	default:
		ps.reply(network.Message{
			Kind: network.KindValue, OK: true, TS: pos,
			Combined: entry.Len() > 1, Epoch: entry.Epoch,
		})
	}
}

// resolveHole learns the decided value at a position below the decided
// ceiling that is missing locally — a foreign proposer's entry whose apply
// message was lost, or one of this master's own positions whose replication
// outcome stayed unknown. Learning drives a partially accepted value to
// decision and fills a genuinely undecided position with a no-op, so new
// transactions are never placed above an unresolved gap (invariant W4). It
// returns the decided entry's bytes as the log holds them.
func (p *pipeline) resolveHole(ctx context.Context, pos int64) (string, error) {
	decided, err := p.svc.learn(ctx, p.group, pos, true)
	if err != nil {
		return "", err
	}
	if err := p.svc.ApplyDecided(p.group, pos, decided); err != nil {
		return "", err
	}
	if raw, ok := p.lg.EntryBytes(pos); ok {
		return raw, nil
	}
	return "", fmt.Errorf("position %d compacted once resolved", pos)
}

// replicate drives one position's entry — raw, stamped with epoch — to
// decision (fast accept round, full Paxos fallback), lands it in the local
// log, frees the window slot, and settles every member: commit on a won
// race, promotion or conflict abort on a lost one, failure when the outcome
// is unknown. "Decided with our value" is not yet "committed": the entry may
// have been fenced by a claim that landed below it, or a transaction voided
// by a handoff, so the verdict waits for the apply watermark to cover the
// position and consults the apply-time record.
func (p *pipeline) replicate(pos, epoch int64, raw []byte, members []*pendingSubmit) {
	ctx := deadline.Start(context.Background(), 4*p.svc.timeout)
	defer ctx.End()
	skipFast := time.Now().UnixNano() < p.fastOff.Load()
	decided, committed, fast, err := p.svc.replicateMaster(ctx, p.group, pos, raw, skipFast)
	if fast == fastDegraded {
		// A peer is unreachable, so unanimity is impossible: skip the fast
		// round for a while rather than paying a doomed wait on every
		// in-flight position. Ordinary per-position contention
		// (fastContended) does not open the breaker. It re-arms
		// automatically, so a healed cluster regains the 1-RTT path within
		// a few windows.
		p.fastOff.Store(time.Now().Add(4 * p.svc.timeout).UnixNano())
	}
	if err != nil {
		// No quorum: the position's fate is unknown. Report failure — NOT
		// promotion: re-queueing could commit the same transaction twice
		// if the original proposal later completes — and leave the hole
		// for resolveHole or recovery to settle (invariant W4).
		p.resolve(pos)
		p.fail(members, network.Status(false, err.Error()))
		return
	}
	if aerr := p.svc.ApplyDecided(p.group, pos, decided); aerr != nil {
		p.resolve(pos)
		p.fail(members, network.Status(false, aerr.Error()))
		return
	}
	// Resolve only after ApplyDecided: the log covers pos before the window
	// stops answering for it, so admission checks never see a gap.
	p.resolve(pos)
	if committed {
		// The commit verdict needs the apply-time record — the epoch fence
		// and the per-transaction migration verdicts (DESIGN.md §15) — which
		// exists once the apply watermark covers pos. If contiguity cannot be
		// reached (an ambiguous hole below), the outcome is unknown: fail, per
		// invariant W4.
		if werr := p.lg.WaitApplied(ctx, pos); werr != nil {
			p.fail(members, network.Status(false, "fencing verdict unavailable: "+werr.Error()))
			return
		}
		if p.lg.Voided(pos) {
			// Split-brain window closed on us: a higher-epoch claim landed
			// below our entry, so it committed nothing. Drain with
			// VerdictDeposed — definitive, so a client may safely retry at
			// the new master — and stop promoting (F3).
			p.noteDeposed()
			p.fail(members, network.Refuse(network.VerdictDeposed, ""))
			return
		}
		// The members are the entry's transactions, one each.
		combined := len(members) > 1
		for _, ps := range members {
			// A handoff below pos may have voided this transaction (rules
			// M1/M2): its writes applied nowhere, so the verdict is the
			// retryable redirect, not a commit.
			if to, moved := p.lg.MovedTxn(pos, ps.txn.ID); moved && ps.handoff == nil {
				ps.reply(migrationVerdict(to))
				continue
			}
			ps.reply(network.Message{
				Kind: network.KindValue, OK: true, TS: pos,
				Combined: combined, Epoch: epoch,
			})
		}
		return
	}
	// Lost the Paxos race: a foreign proposal was decided at pos (failover
	// or recovery interference). Promote the members to compete for the
	// next position instead of aborting (invariant W3) — except those whose
	// reads the decided entry invalidated, the paper's §5 promotion rule,
	// and those whose attempt budget is spent. The decided bytes are asked,
	// not decoded: ApplyDecided checked them, and bytes that do not hold
	// write every key (wal.Invalidates), so no member is promoted past them.
	won := string(decided)
	dec, _ := wal.NewReader(won)
	if dec.Master != "" && dec.Epoch > epoch {
		// Beaten by a takeover claim: we are deposed. Promotion would only
		// place fenced entries; drain with definitive failures (F3).
		p.noteDeposed()
		p.fail(members, network.Refuse(network.VerdictDeposed, ""))
		return
	}
	if p.isDeposed() {
		p.fail(members, network.Refuse(network.VerdictDeposed, ""))
		return
	}
	var promote []*pendingSubmit
	for _, ps := range members {
		ps.attempts++
		switch {
		case wal.Invalidates(won, ps.txn):
			ps.reply(network.Refuse(network.VerdictConflict, ""))
		case ps.attempts >= submitAttempts:
			ps.reply(network.Status(false, "master could not place transaction"))
		default:
			promote = append(promote, ps)
		}
	}
	// Re-queue the survivors as one block in arrival order: reversing them
	// could turn an intra-entry reader/writer pair into a spurious abort on
	// the next placement. A closed pipeline takes none of them: they lost this
	// position to the foreign entry and were placed at no other, so nothing of
	// theirs reached the log.
	if len(promote) > 0 && !p.enqueue(true, promote...) {
		p.fail(promote, network.Refuse(network.VerdictShutdown, ""))
	}
}

// resolve retires pos from the in-flight window — its Paxos instance
// decided, or failed for good — and restarts the dispatcher if a batch was
// waiting for the slot.
func (p *pipeline) resolve(pos int64) {
	p.mu.Lock()
	delete(p.inflight, pos)
	p.kickLocked()
	p.mu.Unlock()
}

// fail answers every submission in batch with one refusal.
func (p *pipeline) fail(batch []*pendingSubmit, refusal network.Message) {
	for _, ps := range batch {
		ps.reply(refusal)
	}
}
