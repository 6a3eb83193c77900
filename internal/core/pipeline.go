package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

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
// Up to Window.Limit() positions replicate concurrently; conflict checks run
// speculatively against the in-flight window (replog.Window), and replog's
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
	txn      wal.Txn
	attempts int // positions competed for so far

	// handoff, when non-nil, marks a migration control entry (DESIGN.md
	// §15): the pipeline places it alone — never combined with transactions
	// — as an entry whose Handoff field carries the phase record. txn is
	// zero for these.
	handoff *wal.Handoff

	// deliver receives the verdict exactly once: settled arbitrates between
	// the pipeline's verdict and the budget timer, and whichever loses is
	// dropped. deliver may be a transport reply callback (the async submit
	// path) — it must not be called twice.
	deliver func(network.Message)
	settled atomic.Bool
	// timer is the budget timer, stopped by the first verdict. Atomic
	// because the timer's own callback races the AfterFunc return-value
	// store: a callback that loads nil simply has nothing to stop — it is
	// the timer that fired.
	timer atomic.Pointer[time.Timer]
}

// reply delivers the verdict, once.
func (ps *pendingSubmit) reply(m network.Message) {
	if !ps.settled.CompareAndSwap(false, true) {
		return
	}
	if t := ps.timer.Load(); t != nil {
		t.Stop()
	}
	ps.deliver(m)
}

// pipeline is one group's submit path at the master: a queue of waiting
// submissions drained by a single dispatcher goroutine that combines them
// into entries and launches one replication goroutine per position, bounded
// by the in-flight window.
type pipeline struct {
	svc        *Service
	group      string
	lg         *replog.Log
	win        *replog.Window
	maxCombine int

	mu      sync.Mutex
	queue   []*pendingSubmit
	running bool // dispatcher goroutine live
	closed  bool
	// epoch is the master epoch this pipeline stamps entries with (0 until
	// mastership is claimed, or always 0 with fencing off). deposed is set
	// when a higher epoch is observed: the pipeline drains its in-flight
	// window with fail verdicts — never promotion — and refuses new batches
	// with a hint at the new master (DESIGN.md §11, deposed-master drain).
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
	s.pipeMu.Lock()
	defer s.pipeMu.Unlock()
	p := s.pipelines[group]
	if p == nil {
		p = &pipeline{
			svc:        s,
			group:      group,
			lg:         s.log(group),
			win:        replog.NewWindow(s.submitWindow),
			maxCombine: s.submitCombine,
		}
		if s.pipeClosed {
			p.closed = true
			p.win.Close()
		}
		s.pipelines[group] = p
	}
	return p
}

// Submit queues the transaction and blocks until the pipeline delivers its
// verdict or the master-side budget (4 message timeouts, as the serial path
// allowed) expires.
func (p *pipeline) Submit(txn wal.Txn) network.Message {
	done := make(chan network.Message, 1)
	p.SubmitAsync(txn, func(m network.Message) { done <- m })
	return <-done
}

// SubmitAsync runs admission control and queues the transaction; deliver
// receives exactly one verdict — the pipeline's, or a timeout once the
// master-side budget expires. The caller's goroutine is released
// immediately: a submit in flight holds no goroutine while its position
// replicates (DESIGN.md §13).
func (p *pipeline) SubmitAsync(txn wal.Txn, deliver func(network.Message)) {
	ps := &pendingSubmit{txn: txn, deliver: deliver}
	if err := p.svc.replicaFault(); err != nil {
		// Fail-stopped storage: refuse before any protocol work, with the
		// verdict that tells the client to go elsewhere (health.go). The
		// check repeats in place() for submissions already queued when the
		// engine died.
		ps.reply(network.Refuse(network.VerdictReplicaFailed, err.Error()))
		return
	}
	ps.timer.Store(time.AfterFunc(4*p.svc.timeout, func() {
		ps.reply(network.Status(false, "master: submit timed out in pipeline"))
	}))
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
	if !p.running {
		p.running = true
		go p.dispatch()
	}
	p.mu.Unlock()
}

// enqueue adds batch to the queue — at the front, preserving batch order,
// for a promoted batch re-competing — and ensures the dispatcher goroutine
// is running. It reports false when the pipeline is closed. Promotion
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
	if !p.running {
		p.running = true
		go p.dispatch()
	}
	return true
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
	p.win.Close()
	p.fail(queued, network.Refuse(network.VerdictShutdown, ""))
}

// dispatch drains the queue: one batch per iteration, each placed at its own
// log position. Exits when the queue empties (enqueue restarts it).
func (p *pipeline) dispatch() {
	for {
		batch := p.take()
		if len(batch) == 0 {
			return
		}
		p.place(batch)
	}
}

// take removes up to maxCombine submissions from the queue head, or marks
// the dispatcher stopped and returns nil when there is nothing to do.
func (p *pipeline) take() []*pendingSubmit {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.queue) == 0 || p.closed {
		p.running = false
		return nil
	}
	n := len(p.queue)
	if n > p.maxCombine {
		n = p.maxCombine
	}
	// Handoff entries never combine: one travels alone, and a batch of
	// transactions stops short of one (DESIGN.md §15).
	if p.queue[0].handoff != nil {
		n = 1
	} else {
		for i := 1; i < n; i++ {
			if p.queue[i].handoff != nil {
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
// before a batch is placed (fencing on only). It adopts an epoch the service
// already holds, refuses with VerdictNotMaster while another datacenter's
// lease is live, and otherwise claims the next epoch — on its own budget, NOT
// the batch's context (the claim must outlive the submissions that triggered
// it). It reports whether placement may proceed; when it returns false the
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
		cctx, cancel := context.WithTimeout(context.Background(), p.svc.leaseDuration()+4*p.svc.timeout)
		defer cancel()
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
	ctx, cancel := context.WithTimeout(context.Background(), 4*p.svc.timeout)
	defer cancel()

	if err := p.svc.replicaFault(); err != nil {
		// The engine died while this batch sat in the queue. Placing it
		// would replicate entries this replica can never apply — and, worse,
		// keep refreshing the dead master's lease at every peer. Drain with
		// the definitive local refusal instead (health.go).
		p.fail(batch, network.Refuse(network.VerdictReplicaFailed, err.Error()))
		return
	}

	var epoch int64
	if p.svc.fencing {
		ok, refusal := p.ensureMastership()
		if !ok {
			p.fail(batch, refusal)
			return
		}
		p.mu.Lock()
		epoch = p.epoch
		p.mu.Unlock()
	}

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

	// Wait for window room before picking the position: resolutions while
	// we wait can move the decided ceiling, and the new position must sit
	// above everything issued or decided so far (invariant W1).
	if err := p.win.Reserve(ctx); err != nil {
		p.fail(batch, network.Status(false, err.Error()))
		return
	}
	pos := p.nextPos()

	// Admission and combination, in arrival order: each transaction is
	// checked against the full log suffix after its read position —
	// applied, decided-pending, and in-flight speculative entries alike —
	// and against the entry under construction (invariant W2). Admitted
	// transactions merge into one multi-transaction entry; the list order
	// is serializable by construction.
	var entry wal.Entry
	entry.Epoch = epoch
	var members []*pendingSubmit
	if h := batch[0].handoff; h != nil {
		// A handoff entry travels alone (take() guarantees the singleton
		// batch): it has no reads to conflict-check and no writes to admit.
		entry.Handoff = h.Clone()
		members = batch
	} else {
		for _, ps := range batch {
			if refusal, fenced := p.migrationRefusal(ps.txn); fenced {
				ps.reply(refusal)
				continue
			}
			verdict, at, err := p.admit(ctx, ps.txn, pos, entry)
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
				entry.Txns = append(entry.Txns, ps.txn.Clone())
				members = append(members, ps)
			}
		}
	}
	if len(members) == 0 {
		return
	}
	p.win.Start(pos, entry)
	go p.replicate(pos, entry, members)
}

// migrationRefusal fails a transaction fast when the apply-time migration
// rules (replog M1/M2, DESIGN.md §15) would void it anyway: a write into a
// departed range or a non-backfill write into a prepared-but-unopened inbound
// range (migrationVerdict). Only an optimization — apply-time voiding remains
// the safety net for entries already in flight when the handoff applied.
func (p *pipeline) migrationRefusal(txn wal.Txn) (network.Message, bool) {
	if !p.lg.HasMigrations() {
		return network.Message{}, false
	}
	for k := range txn.Writes {
		if to, _, ok := p.lg.MovedTo(k); ok {
			return migrationVerdict(to), true
		}
	}
	if !txn.Backfill {
		for k := range txn.Writes {
			if p.lg.InboundPending(k) {
				return migrationVerdict(""), true
			}
		}
	}
	return network.Message{}, false
}

// SubmitHandoffAsync queues a migration handoff entry for placement
// (DESIGN.md §15). It bypasses the admission cap — a saturated data plane
// must not starve the migration control plane — but pays the same verdict
// budget as any submit. The OK verdict's TS carries the entry's log
// position.
func (p *pipeline) SubmitHandoffAsync(h *wal.Handoff, deliver func(network.Message)) {
	ps := &pendingSubmit{handoff: h.Clone(), deliver: deliver}
	if err := p.svc.replicaFault(); err != nil {
		ps.reply(network.Refuse(network.VerdictReplicaFailed, err.Error()))
		return
	}
	ps.timer.Store(time.AfterFunc(4*p.svc.timeout, func() {
		ps.reply(network.Status(false, "master: handoff timed out in pipeline"))
	}))
	if !p.enqueue(false, ps) {
		ps.reply(network.Refuse(network.VerdictShutdown, ""))
	}
}

// nextPos returns the next position to propose at: above every position this
// window ever issued and every position known decided locally (so a fresh
// entry is never placed below one the master has not absorbed).
func (p *pipeline) nextPos() int64 {
	pos := p.win.IssuedMax()
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
// at pos with entrySoFar admitted ahead of it in the same entry: the
// transaction aborts iff some entry after its read position — or an earlier
// transaction in its own entry — wrote a key it read. A hole below the
// decided ceiling is resolved before checking so admission never runs
// against unknown history. The same walk finds an earlier attempt of txn
// itself (a resubmission carries the same read position, so every earlier
// placement lies inside the walked range); one that was fenced at apply
// committed nothing and is stepped over.
func (p *pipeline) admit(ctx context.Context, txn wal.Txn, pos int64, entrySoFar wal.Entry) (admission, int64, error) {
	for q := txn.ReadPos + 1; q < pos; q++ {
		prev, inFlight := p.win.Entry(q)
		ok := inFlight
		if !ok {
			prev, ok = p.lg.Entry(q)
		}
		if !ok {
			var err error
			if prev, err = p.resolveHole(ctx, q); err != nil {
				return admitOK, 0, fmt.Errorf("log hole at %d: %v", q, err)
			}
		}
		if txn.ID != "" && prev.Contains(txn.ID) {
			switch {
			case inFlight:
				return admitInFlight, q, nil
			case q > p.lg.Applied() || !p.lg.Voided(q):
				return admitDecided, q, nil
			}
			continue
		}
		if txn.ReadsAny(prev.WriteKeys()) {
			return admitConflict, 0, nil
		}
	}
	if txn.ID != "" && entrySoFar.Contains(txn.ID) {
		return admitInFlight, pos, nil
	}
	if txn.ReadsAny(entrySoFar.WriteKeys()) {
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
	ctx, cancel := context.WithTimeout(context.Background(), 4*p.svc.timeout)
	defer cancel()
	if err := p.lg.WaitApplied(ctx, pos); err != nil {
		ps.reply(network.Status(false, "earlier attempt's verdict unavailable: "+err.Error()))
		return
	}
	entry, _ := p.lg.Entry(pos)
	switch to, moved := p.lg.MovedTxn(pos, ps.txn.ID); {
	case p.lg.Voided(pos):
		ps.reply(network.Status(false, "earlier attempt was fenced; resubmit"))
	case moved:
		ps.reply(migrationVerdict(to))
	default:
		ps.reply(network.Message{
			Kind: network.KindValue, OK: true, TS: pos,
			Combined: len(entry.Txns) > 1, Epoch: entry.Epoch,
		})
	}
}

// resolveHole learns the decided value at a position below the decided
// ceiling that is missing locally — a foreign proposer's entry whose apply
// message was lost, or one of this master's own positions whose replication
// outcome stayed unknown. Learning drives a partially accepted value to
// decision and fills a genuinely undecided position with a no-op, so new
// transactions are never placed above an unresolved gap (invariant W4).
func (p *pipeline) resolveHole(ctx context.Context, pos int64) (wal.Entry, error) {
	entry, err := p.svc.learn(ctx, p.group, pos, true)
	if err != nil {
		return wal.Entry{}, err
	}
	if err := p.svc.ApplyDecided(p.group, pos, wal.Encode(entry)); err != nil {
		return wal.Entry{}, err
	}
	return entry, nil
}

// replicate drives one position's entry to decision (fast accept round,
// full Paxos fallback), lands it in the local log, retires the window slot,
// and settles every member: commit on a won race, promotion or conflict
// abort on a lost one, failure when the outcome is unknown. With fencing on,
// "decided with our value" is not yet "committed": the entry may have been
// fenced by a claim that landed below it, so the verdict waits for the apply
// watermark to cover the position and consults the fencing record.
func (p *pipeline) replicate(pos int64, entry wal.Entry, members []*pendingSubmit) {
	ctx, cancel := context.WithTimeout(context.Background(), 4*p.svc.timeout)
	defer cancel()
	skipFast := time.Now().UnixNano() < p.fastOff.Load()
	decided, committed, fast, err := p.svc.replicateMaster(ctx, p.group, pos, wal.Encode(entry), skipFast)
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
		p.win.Resolve(pos)
		p.fail(members, network.Status(false, err.Error()))
		return
	}
	if aerr := p.svc.ApplyDecided(p.group, pos, decided); aerr != nil {
		p.win.Resolve(pos)
		p.fail(members, network.Status(false, aerr.Error()))
		return
	}
	// Resolve only after ApplyDecided: the log covers pos before the window
	// stops answering for it, so admission checks never see a gap.
	p.win.Resolve(pos)
	if committed {
		// The commit verdict needs the apply-time record: the epoch fence
		// once fencing is on, and the per-transaction migration verdicts
		// whenever any handoff has applied to this log (DESIGN.md §15). Both
		// exist once the apply watermark covers pos.
		needVerdict := entry.Epoch != 0 || p.lg.HasMigrations()
		if needVerdict {
			// If contiguity cannot be reached (an ambiguous hole below), the
			// outcome is unknown: fail, per invariant W4.
			if werr := p.lg.WaitApplied(ctx, pos); werr != nil {
				p.fail(members, network.Status(false, "fencing verdict unavailable: "+werr.Error()))
				return
			}
			if entry.Epoch != 0 && p.lg.Voided(pos) {
				// Split-brain window closed on us: a higher-epoch claim
				// landed below our entry, so it committed nothing. Drain
				// with VerdictDeposed — definitive, so a client may safely
				// retry at the new master — and stop promoting (F3).
				p.noteDeposed()
				p.fail(members, network.Refuse(network.VerdictDeposed, ""))
				return
			}
		}
		combined := len(entry.Txns) > 1
		for _, ps := range members {
			if needVerdict && ps.handoff == nil {
				// A handoff below pos may have voided this transaction
				// (rules M1/M2): its writes applied nowhere, so the verdict
				// is the retryable redirect, not a commit.
				if to, moved := p.lg.MovedTxn(pos, ps.txn.ID); moved {
					ps.reply(migrationVerdict(to))
					continue
				}
			}
			ps.reply(network.Message{
				Kind: network.KindValue, OK: true, TS: pos,
				Combined: combined, Epoch: entry.Epoch,
			})
		}
		return
	}
	// Lost the Paxos race: a foreign proposal was decided at pos (failover
	// or recovery interference). Promote the members to compete for the
	// next position instead of aborting (invariant W3) — except those whose
	// reads the decided entry invalidated, the paper's §5 promotion rule,
	// and those whose attempt budget is spent.
	decEntry, derr := wal.Decode(decided)
	if derr != nil {
		p.fail(members, network.Status(false, "decided value corrupt: "+derr.Error()))
		return
	}
	if decEntry.IsClaim() && decEntry.Epoch > entry.Epoch {
		// Beaten by a takeover claim: we are deposed. Promotion would only
		// place fenced entries; drain with definitive failures (F3).
		p.noteDeposed()
		p.fail(members, network.Refuse(network.VerdictDeposed, ""))
		return
	}
	if p.svc.fencing && p.isDeposed() {
		p.fail(members, network.Refuse(network.VerdictDeposed, ""))
		return
	}
	var promote []*pendingSubmit
	for _, ps := range members {
		ps.attempts++
		switch {
		case ps.txn.ReadsAny(decEntry.WriteKeys()):
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

// fail answers every submission in batch with one refusal.
func (p *pipeline) fail(batch []*pendingSubmit, refusal network.Message) {
	for _, ps := range batch {
		ps.reply(refusal)
	}
}
