package replog

import (
	"encoding/json"
	"fmt"
	"iter"
	"slices"

	"paxoscp/internal/placement"
	"paxoscp/internal/wal"
)

// This file is the apply-time half of live shard migration (DESIGN.md §15).
// Handoff entries ride the replicated log like any other entry, so the
// migration state of a group — which ranges have departed, which are inbound
// — is a deterministic function of the applied log prefix, identical at
// every replica, exactly like the epoch state of §11. drain maintains it as
// handoff entries apply, persists it in the meta row next to the epoch
// fields, and enforces the two migration invariants:
//
//	M1 (no writes behind a departed range): a transaction at a position
//	   above an applied HandoffOut that writes any key of the departed
//	   range is void — none of its writes land, at any replica — and the
//	   voiding is recorded per transaction so the master's pipeline turns
//	   the verdict into the retryable "moved" answer instead of a commit.
//	M2 (no writes into an unopened inbound range): a non-backfill
//	   transaction writing a key of a range that is prepared but not yet
//	   open (HandoffPrepare applied, HandoffIn not) is void the same way;
//	   its verdict is the retryable "migrating".
//
// Both rules are mirrored verbatim by the offline history checker, which
// replays the same log prefix with the same MoveSet predicate. Everything
// else asks about the state through a Fence taken at a log position.

// HandoffRecord is one applied handoff entry, as persisted in the meta row
// and carried inside snapshots. Pos is the log position it applied at.
type HandoffRecord struct {
	Phase   uint8    `json:"phase"`
	From    string   `json:"from"`
	To      string   `json:"to"`
	Groups  []string `json:"groups"`
	Version int64    `json:"version"`
	Pos     int64    `json:"pos"`
}

// String renders e.g. "out g3->g9 v9 @17".
func (r HandoffRecord) String() string {
	return fmt.Sprintf("%s %s->%s v%d @%d", wal.HandoffPhase(r.Phase), r.From, r.To, r.Version, r.Pos)
}

// MigrationState is the ordered list of applied handoff records relevant to
// one group's log — the durable form of the group's migration state, shipped
// inside snapshots so a replica restored past the handoff positions still
// fences correctly.
type MigrationState struct {
	Records []HandoffRecord `json:"records"`
}

// migRange pairs a handoff record with its compiled range predicate.
type migRange struct {
	rec HandoffRecord
	set *placement.MoveSet
}

// migState is the derived, query-friendly view of a group's applied handoff
// records. Log.mig is guarded by Log.mu; a Fence holds a copy.
type migState struct {
	records []HandoffRecord
	out     []migRange // HandoffOut, this group is From: departed ranges
	inPend  []migRange // HandoffPrepare without a matching HandoffIn yet
	in      []migRange // HandoffIn, this group is To: ranges now served here
	tomb    []migRange // HandoffTombstone: departed ranges cleared for GC
}

// apply folds one applied handoff record (for the log's own group) into the
// derived state. Records arrive in log order.
func (m *migState) apply(group string, rec HandoffRecord) {
	m.records = append(m.records, rec)
	r := migRange{rec: rec, set: placement.NewMoveSet(rec.Groups, rec.From, rec.To)}
	switch wal.HandoffPhase(rec.Phase) {
	case wal.HandoffPrepare:
		if rec.To == group {
			m.inPend = append(m.inPend, r)
		}
	case wal.HandoffOut:
		if rec.From == group {
			m.out = append(m.out, r)
		}
	case wal.HandoffIn:
		if rec.To == group {
			m.in = append(m.in, r)
			kept := m.inPend[:0]
			for _, p := range m.inPend {
				if p.rec.From == rec.From && p.rec.To == rec.To && p.rec.Version == rec.Version {
					continue
				}
				kept = append(kept, p)
			}
			m.inPend = kept
		}
	case wal.HandoffTombstone:
		if rec.From == group {
			m.tomb = append(m.tomb, r)
		}
	}
}

// rebuild replays records from scratch (Open, snapshot install, FenceAt below
// the newest record) into fresh slices, never the ones a Fence may hold.
func (m *migState) rebuild(group string, records []HandoffRecord) {
	*m = migState{}
	for _, rec := range records {
		m.apply(group, rec)
	}
}

// deepCopy returns a copy safe to mutate while readers still hold the
// original: every slice gets fresh backing (records themselves are immutable
// once appended, so their Groups slices may be shared).
func (m migState) deepCopy() migState {
	return migState{
		records: append([]HandoffRecord(nil), m.records...),
		out:     append([]migRange(nil), m.out...),
		inPend:  append([]migRange(nil), m.inPend...),
		in:      append([]migRange(nil), m.in...),
		tomb:    append([]migRange(nil), m.tomb...),
	}
}

// fencing reports whether any migration rule can void a transaction.
func (m *migState) fencing() bool { return len(m.out) > 0 || len(m.inPend) > 0 }

// voids applies the migration rules to one transaction writing keys, a
// backfill or not: M1 — any write into a departed range voids the
// transaction, with the destination group as the verdict hint; M2 — a
// non-backfill write into a prepared-but-unopened inbound range voids it
// with no destination (the "migrating" retry verdict). Read-only
// transactions never reach the log, so writes are the only surface the
// rules need. The drain and Fence.Voids walk the keys from the
// transaction's bytes (wal.TxnView.WriteKeys); they ask fencing first, so a
// group that fences nothing builds no walk.
func (m *migState) voids(backfill bool, keys iter.Seq[string]) (to string, voided bool) {
	// The loop bodies capture out and inPend, not m: a drain's migState
	// stays on its stack.
	out, inPend := m.out, m.inPend
	for k := range keys {
		if r, ok := find(out, k); ok {
			return r.rec.To, true // M1: the range departed before this position
		}
	}
	if !backfill {
		for k := range keys {
			if _, ok := find(inPend, k); ok {
				return "", true // M2: the range is not open here yet
			}
		}
	}
	return "", false
}

// find returns the first range of rs that holds key. At most one outbound
// record can cover a key (a key that already left cannot match a later
// departure's source placement), so for departed ranges the first match is
// the match.
func find(rs []migRange, key string) (migRange, bool) {
	for _, r := range rs {
		if r.set.Moves(key) {
			return r, true
		}
	}
	return migRange{}, false
}

// encodeMigrations serializes records for the meta row ("" when empty, so
// non-migrating groups keep their meta rows unchanged).
func encodeMigrations(records []HandoffRecord) string {
	if len(records) == 0 {
		return ""
	}
	b, err := json.Marshal(records)
	if err != nil {
		return ""
	}
	return string(b)
}

// decodeMigrations parses the meta row form. What an unparsable attribute
// means is the caller's call: Open carries on without the records (catch-up
// rebuilds them from the log if the horizon permits), a snapshot install
// refuses the header.
func decodeMigrations(s string) ([]HandoffRecord, error) {
	if s == "" {
		return nil, nil
	}
	var records []HandoffRecord
	if err := json.Unmarshal([]byte(s), &records); err != nil {
		return nil, fmt.Errorf("replog: meta row: migrations: %w", err)
	}
	return records, nil
}

// --- The fence ------------------------------------------------------------

// Fence is a group's migration state at one log position: every migration
// question a replica asks — of a read, a scan page, a placed batch, a
// compaction, a snapshot — is put to one. Log.Fence takes it at the applied
// watermark, Log.FenceAt at a pin. The zero Fence, a group that never
// migrated, answers no to everything and loops over nothing.
//
// A Fence is an immutable value that shares the log's slices. That is safe
// because nothing a Fence holds is ever written again: drain deep-copies the
// state before a handoff entry mutates it, and rebuild starts from nil slices.
// Both must stay true.
type Fence struct{ st migState }

// Fence returns the fence at the applied watermark.
func (l *Log) Fence() Fence {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Fence{l.mig}
}

// FenceAt returns the fence at ts: the state derived from the handoff records
// applied at or below ts. Records above ts are invisible — a scan pinned
// before a cutover keeps serving the range from the source, as point reads at
// that position would, and a snapshot at horizon ts ships none of them (the
// restored replica replays those positions itself; fencing them early would
// void pre-handoff transactions every other replica applied). At or above the
// newest record it is the live state, not a rebuilt one.
func (l *Log) FenceAt(ts int64) Fence {
	f := l.Fence()
	if i := slices.IndexFunc(f.st.records, func(r HandoffRecord) bool { return r.Pos > ts }); i >= 0 {
		f.st.rebuild(l.group, f.st.records[:i])
	}
	return f
}

// Moved returns the group a departed key now belongs to and the log position
// of the HandoffOut that froze it: the source must not serve it, because the
// destination's copy is authoritative from the cutover on. ok is false while
// the key is still owned here.
func (f Fence) Moved(key string) (to string, outPos int64, ok bool) {
	r, ok := find(f.st.out, key)
	return r.rec.To, r.rec.Pos, ok
}

// Pending reports whether key belongs to a range this group has prepared to
// receive but not yet opened (HandoffPrepare applied, HandoffIn not): the
// backfill may be incomplete, so local rows must not be served, and ordinary
// writes are refused with the retryable "migrating" verdict.
func (f Fence) Pending(key string) bool {
	_, ok := find(f.st.inPend, key)
	return ok
}

// MovedIn reports whether key belongs to a range whose HandoffIn applied: the
// row migrated here. A scan reply marks such rows so a client merging source
// and destination pages pinned on either side of a cutover can prefer the
// destination's copy.
func (f Fence) MovedIn(key string) bool {
	_, ok := find(f.st.in, key)
	return ok
}

// Tombstoned reports whether key belongs to a departed range whose cutover is
// durable in the destination (HandoffTombstone applied): its frozen local rows
// may be scavenged wholesale.
func (f Fence) Tombstoned(key string) bool {
	_, ok := find(f.st.tomb, key)
	return ok
}

// HasPending reports whether any inbound range is prepared but unopened — the
// signal a scanning client uses to retry this group after the cutover instead
// of treating its silence as emptiness.
func (f Fence) HasPending() bool { return len(f.st.inPend) > 0 }

// Voids reports whether the migration rules M1/M2 would void txn, and the
// destination to hint ("" = migrating): the rule drain applies, asked before
// a transaction is placed.
func (f Fence) Voids(txn wal.TxnView) (to string, voided bool) {
	if !f.st.fencing() {
		return "", false
	}
	return f.st.voids(txn.Backfill, txn.WriteKeys())
}

// Records returns the applied handoff records in log order — the durable form
// of the state (meta row, snapshot header) and the operator's view. Shared:
// do not modify.
func (f Fence) Records() []HandoffRecord { return f.st.records }

// MovedTxn reports whether the transaction with txnID inside the applied
// entry at pos was voided by a migration rule, and the destination group to
// hint ("" when the range was inbound-unopened here — verdict "migrating").
// Only meaningful for positions at or below the applied watermark; like
// Voided, the record is bounded and old positions are forgotten.
func (l *Log) MovedTxn(pos int64, txnID string) (to string, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	m, ok := l.movedTxns[pos]
	if !ok {
		return "", false
	}
	to, ok = m[txnID]
	return to, ok
}
