package core

import (
	"context"
	"fmt"
	"sync/atomic"

	"paxoscp/internal/network"
	"paxoscp/internal/placement"
	"paxoscp/internal/replog"
	"paxoscp/internal/wal"
)

// Live shard migration (DESIGN.md §15): the service-side handlers that stream
// a moving key range out of its old group, the verdict surface that redirects
// clients, and the Migrator — the coordinator that drives one range's
// backfill and epoch-fenced cutover through both groups' logs.
//
// The protocol per (From → To) pair:
//
//  1. HandoffPrepare commits to To's log: the inbound range is fenced
//     against ordinary writes (replog rule M2) so no client write can
//     interleave with the backfill.
//  2. Backfill: the coordinator pages the range's rows out of From with
//     KindRangeSnapshot reads pinned at one watermark, and writes them to To
//     as Backfill-flagged transactions (exempt from M2). Delta rounds repeat
//     with a rising version floor until a round copies few enough rows.
//  3. HandoffOut commits to From's log: the range departs. Its log position
//     is the migration frontier — every transaction at a later position that
//     writes a range key is void (rule M1) with the retryable VerdictMoved,
//     so the frozen rows are exactly the state at the frontier.
//  4. A final delta copy, served at a watermark at or past the frontier,
//     moves the last writes that raced the cutover.
//  5. HandoffIn commits to To's log: the range opens for normal traffic.
//  6. HandoffTombstone commits to From's log: the frozen rows may be
//     scavenged wholesale at From's next compaction.
//
// Every handoff entry rides the ordinary master pipeline and is epoch-
// stamped, so a deposed coordinator's cutover is fenced (F2) exactly like
// any stale master's entry. Handoff submission is idempotent by
// construction: a duplicate record (a retry after a lost verdict) fences the
// same range to the same destination, so replicas that apply both reach the
// same state.

// migrationVerdict is the refusal the migration rules call for — of a
// transaction they void (its writes apply nowhere: a retryable redirect, not
// a commit) and of a read they fence (Service.readFence): VerdictMoved naming
// the destination group, and the keys where known, for a departed range (M1);
// VerdictMigrating, which has no destination to name, for an inbound range not
// open yet (M2; replog.Log.MovedTxn reports it as to == "").
func migrationVerdict(to string, keys ...string) network.Message {
	if to == "" {
		return network.Refuse(network.VerdictMigrating, "")
	}
	refusal := network.Refuse(network.VerdictMoved, "")
	refusal.Value, refusal.Keys = to, keys
	return refusal
}

// rangeSnapshotPageRows caps how many rows one KindRangeSnapshot reply
// carries, bounding reply size and the store scan a single request costs.
const rangeSnapshotPageRows = 256

// rangeSnapshotExamineBudget caps how many ordered-index rows one
// KindRangeSnapshot request walks before replying with a progress cursor.
// A moving range is hash-scattered through the key order, so a page of
// moved rows can sit far apart in the index; without the budget a sparse
// range would make single requests arbitrarily expensive. A budget-bounded
// reply may carry fewer rows than the page cap — even zero — with the
// cursor advanced to the last examined key; copyRange resumes from it.
const rangeSnapshotExamineBudget = 2048

// handleRangeSnapshot serves one page of a moving range's rows at a pinned
// read position. Request fields: Group = source group, Value = destination
// group, Keys = the destination placement's full group list (the range is
// {k: owned by Value under Keys, owned by Group under Keys minus Value}),
// TS = the pinned position (ResolvePos on the first page pins at the local
// watermark), Pos = version floor (only rows written after it), Key+Found =
// resume cursor (start after Key when Found). The reply pages rows in
// Keys/Vals, TS echoing the pin and Found flagging more pages.
//
// Pages walk the store's ordered index from the cursor — each request costs
// O(page) index work, not a full-store key sort (which would make an N-row
// backfill quadratic). The pin is registered with the replog (pinPage) so a
// compaction between pages cannot GC the versions later pages still read.
func (s *Service) handleRangeSnapshot(req network.Message) network.Message {
	ts, _, refusal, ok := s.pinPage(req.Group, req.TS)
	if !ok {
		return refusal
	}
	set := placement.NewMoveSet(req.Keys, req.Group, req.Value)
	prefix := replog.DataPrefix(req.Group)
	resp := network.Message{Kind: network.KindValue, OK: true, TS: ts}
	after := ""
	if req.Found {
		after = prefix + req.Key // resume after the cursor
	}
	examined := 0
	for {
		rows, more, serr := s.store.ScanPrefix(prefix, after, rangeSnapshotPageRows, ts)
		if serr != nil {
			return network.Status(false, serr.Error())
		}
		for _, row := range rows {
			bare := row.Key[len(prefix):]
			examined++
			if set.Moves(bare) && row.TS > req.Pos {
				resp.Keys = append(resp.Keys, bare)
				resp.Vals = append(resp.Vals, row.Val.Get("v"))
			}
			if len(resp.Keys) >= rangeSnapshotPageRows || examined >= rangeSnapshotExamineBudget {
				resp.Key = bare
				resp.Found = true // more pages may follow
				return resp
			}
		}
		if !more {
			return resp // range complete: Found stays false
		}
		after = rows[len(rows)-1].Key
	}
}

// handleMigrate submits one handoff phase entry to the group's master
// pipeline and blocks for the verdict; OK replies carry the entry's log
// position in TS (the HandoffOut position is the frontier the coordinator
// pins its final delta to). A non-master refuses with the usual
// VerdictNotMaster hint.
func (s *Service) handleMigrate(req network.Message) network.Message {
	entry, err := wal.Decode(req.Payload)
	if err != nil || !entry.IsHandoff() {
		return network.Status(false, "bad migrate payload")
	}
	done := make(chan network.Message, 1)
	s.pipeline(req.Group).SubmitHandoffAsync(entry.Handoff, func(m network.Message) { done <- m })
	return <-done
}

// --- Migrator ---------------------------------------------------------------

// Migrator drives live range migrations: for each (From → To) pair of a
// placement growth step it runs the prepare / backfill / cutover sequence
// above against the groups' masters. One Migrator handles pairs serially; it
// holds no state a crash would strand — every phase transition lives in the
// groups' replicated logs, and re-running a pair is idempotent.
//
// It sends through its client's persistent sender (route.go): page reads to
// any replica, handoff entries and backfill batches to the group's master —
// seeded by the client's Config.MasterFor (the cluster's spread; a stale seed
// only costs redirect hops) — each until it is answered or the context ends,
// because a migration under fire is expected to stall through fault windows
// and resume, not abort. Both submissions are safe to deliver twice: a
// duplicate handoff record fences identically, and a resubmitted backfill
// batch is answered with its first verdict (pipeline invariant W5).
type Migrator struct {
	// Client reaches the cluster's datacenters and knows each group's master.
	Client *Client
	// OnPhase, when set, observes every committed handoff entry (bench and
	// tests measure cutover pauses with it).
	OnPhase func(h wal.Handoff, pos int64)

	seq atomic.Int64 // backfill transaction ID counter
}

const (
	// migrateLagBound is the delta-round row count at which the coordinator
	// cuts over: a round that copied at most this many rows means the tail is
	// short enough that the final frozen delta stays small.
	migrateLagBound = 16
	// migrateMaxRounds caps chase rounds before cutting over regardless of
	// lag — the HandoffOut fence bounds the final delta anyway.
	migrateMaxRounds = 8
	// migrateBatchRows caps rows per backfill transaction.
	migrateBatchRows = 32
)

func (m *Migrator) sender() sender { return sender{c: m.Client, persist: true} }

// Step migrates every pair of one placement growth step, serially in pair
// order. The step's To placement must be the post-step placement (the group
// list every handoff entry carries).
func (m *Migrator) Step(ctx context.Context, step placement.Step) error {
	groups := step.To.Groups()
	for _, pair := range step.Pairs {
		if err := m.MigratePair(ctx, pair.From, pair.To, groups); err != nil {
			return fmt.Errorf("core: migrate %s->%s: %w", pair.From, pair.To, err)
		}
	}
	return nil
}

// MigratePair runs the full migration sequence for one range: the keys that
// move from group `from` to group `to` when the placement becomes
// destGroups. Idempotent: re-running after a partial failure re-fences the
// same range and re-copies rows to the same values.
func (m *Migrator) MigratePair(ctx context.Context, from, to string, destGroups []string) error {
	// 1. Fence the inbound range at the destination.
	if _, err := m.submitHandoff(ctx, wal.NewHandoff(wal.HandoffPrepare, from, to, destGroups)); err != nil {
		return fmt.Errorf("prepare: %w", err)
	}

	// 2. Backfill at a pinned watermark, then chase the tail with delta
	// rounds until one round's copy volume is inside the lag bound.
	var floor int64
	readPos := int64(-1) // destination read position, maintained across batches
	for round := 0; round < migrateMaxRounds; round++ {
		copied, pin, err := m.copyRange(ctx, from, to, destGroups, floor, network.ResolvePos, &readPos)
		if err != nil {
			return fmt.Errorf("backfill round %d: %w", round, err)
		}
		floor = pin
		if copied <= migrateLagBound {
			break
		}
	}

	// 3. Cut the range over: the HandoffOut position freezes it at the
	// source, so everything written after the last round is bounded by the
	// fence, not by luck.
	outPos, err := m.submitHandoff(ctx, wal.NewHandoff(wal.HandoffOut, from, to, destGroups))
	if err != nil {
		return fmt.Errorf("handoff-out: %w", err)
	}

	// 4. Final frozen delta, served at or past the frontier (the serving
	// replica catches up to outPos if it lags).
	if _, _, err := m.copyRange(ctx, from, to, destGroups, floor, outPos, &readPos); err != nil {
		return fmt.Errorf("final delta: %w", err)
	}

	// 5. Open the range at the destination.
	if _, err := m.submitHandoff(ctx, wal.NewHandoff(wal.HandoffIn, from, to, destGroups)); err != nil {
		return fmt.Errorf("handoff-in: %w", err)
	}

	// 6. Clear the frozen source rows for scavenge.
	if _, err := m.submitHandoff(ctx, wal.NewHandoff(wal.HandoffTombstone, from, to, destGroups)); err != nil {
		return fmt.Errorf("tombstone: %w", err)
	}
	return nil
}

// copyRange copies one round of the moving range's rows: every row whose
// version exceeds floor, read at the pinned position (pin ==
// network.ResolvePos pins at the serving replica's watermark), written to
// the destination group in backfill transactions. It returns the row count
// and the pin the round was served at — the next round's floor.
func (m *Migrator) copyRange(ctx context.Context, from, to string, destGroups []string, floor, pin int64, readPos *int64) (int, int64, error) {
	copied := 0
	cursor, hasCursor := "", false
	var batchKeys, batchVals []string
	flush := func() error {
		if len(batchKeys) == 0 {
			return nil
		}
		if err := m.backfill(ctx, to, batchKeys, batchVals, readPos); err != nil {
			return err
		}
		copied += len(batchKeys)
		batchKeys, batchVals = batchKeys[:0], batchVals[:0]
		return nil
	}
	for {
		req := network.Message{
			Kind: network.KindRangeSnapshot, Group: from, Value: to, Keys: destGroups,
			TS: pin, Pos: floor, Key: cursor, Found: hasCursor,
		}
		resp, err := m.sender().toAny(ctx, req)
		if err != nil {
			return copied, pin, err
		}
		if pin == network.ResolvePos {
			pin = resp.TS // first page pins the round; later pages reuse it
		}
		for i, k := range resp.Keys {
			batchKeys = append(batchKeys, k)
			batchVals = append(batchVals, resp.Vals[i])
			if len(batchKeys) >= migrateBatchRows {
				if err := flush(); err != nil {
					return copied, pin, err
				}
			}
		}
		if !resp.Found {
			break
		}
		cursor, hasCursor = resp.Key, true
	}
	if err := flush(); err != nil {
		return copied, pin, err
	}
	return copied, pin, nil
}

// backfill commits one batch of rows to the destination group as a single
// Backfill-flagged transaction (exempt from the M2 inbound fence). The
// transaction reads nothing, so it can never conflict; its read position
// only bounds the master's admission scan, and each commit's position seeds
// the next batch's.
func (m *Migrator) backfill(ctx context.Context, to string, keys, vals []string, readPos *int64) error {
	if *readPos < 0 {
		resp, err := m.sender().toAny(ctx, network.Message{Kind: network.KindReadPos, Group: to})
		if err != nil {
			return fmt.Errorf("destination read position: %w", err)
		}
		*readPos = resp.TS
	}
	writes := make(map[string]string, len(keys))
	for i, k := range keys {
		writes[k] = vals[i]
	}
	txn := wal.Txn{
		ID:       fmt.Sprintf("mig-%s-%d", to, m.seq.Add(1)),
		Origin:   "migrator",
		ReadPos:  *readPos,
		Writes:   writes,
		Backfill: true,
	}
	resp, err := m.sender().toMaster(ctx, to, network.Message{
		Kind: network.KindSubmit, Group: to, Payload: wal.Encode(wal.NewEntry(txn)),
	})
	if err != nil {
		return fmt.Errorf("backfill batch: %w", err)
	}
	*readPos = resp.TS
	return nil
}

// submitHandoff commits one handoff entry through its group's master and
// returns the log position it applied at. Retries after a lost verdict are
// safe: duplicate handoff records fence identically.
func (m *Migrator) submitHandoff(ctx context.Context, e wal.Entry) (int64, error) {
	h := e.Handoff
	group := h.From
	if h.Phase == wal.HandoffPrepare || h.Phase == wal.HandoffIn {
		group = h.To
	}
	resp, err := m.sender().toMaster(ctx, group, network.Message{
		Kind: network.KindMigrate, Group: group, Payload: wal.Encode(e),
	})
	if err != nil {
		return 0, err
	}
	if m.OnPhase != nil {
		m.OnPhase(*h, resp.TS)
	}
	return resp.TS, nil
}
