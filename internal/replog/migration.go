package replog

import (
	"encoding/json"
	"fmt"

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
// replays the same log prefix with the same MoveSet predicate.

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

// Clone returns a deep copy.
func (m MigrationState) Clone() MigrationState {
	out := MigrationState{Records: make([]HandoffRecord, len(m.Records))}
	copy(out.Records, m.Records)
	for i := range out.Records {
		out.Records[i].Groups = append([]string(nil), m.Records[i].Groups...)
	}
	return out
}

// migRange pairs a handoff record with its compiled range predicate.
type migRange struct {
	rec HandoffRecord
	set *placement.MoveSet
}

// migState is the derived, query-friendly view of a group's applied handoff
// records. Guarded by Log.mu.
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

// rebuild replays records from scratch (Open, snapshot install).
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

// voidsTxn applies the migration rules to one transaction at apply time:
// M1 — any write into a departed range voids the transaction, with the
// destination group as the verdict hint; M2 — a non-backfill write into a
// prepared-but-unopened inbound range voids it with no destination (the
// "migrating" retry verdict). Read-only transactions never reach the log,
// so writes are the only surface the rules need.
func (m *migState) voidsTxn(t wal.Txn) (to string, voided bool) {
	if len(m.out) == 0 && len(m.inPend) == 0 {
		return "", false
	}
	for k := range t.Writes {
		if dest, _, ok := m.movedTo(k); ok {
			return dest, true // M1: the range departed before this position
		}
	}
	if !t.Backfill {
		for k := range t.Writes {
			if m.inboundPending(k) {
				return "", true // M2: the range is not open here yet
			}
		}
	}
	return "", false
}

// movedTo returns the destination group and handoff position if key belongs
// to a departed range. At most one outbound record can cover a key (a key
// that already left cannot match a later departure's source placement), so
// the first match is the match.
func (m *migState) movedTo(key string) (string, int64, bool) {
	for _, r := range m.out {
		if r.set.Moves(key) {
			return r.rec.To, r.rec.Pos, true
		}
	}
	return "", 0, false
}

// inboundPending reports whether key is inside a prepared-but-unopened
// inbound range.
func (m *migState) inboundPending(key string) bool {
	for _, r := range m.inPend {
		if r.set.Moves(key) {
			return true
		}
	}
	return false
}

// tombstoned reports whether key is inside a range cleared for scavenge.
func (m *migState) tombstoned(key string) bool {
	for _, r := range m.tomb {
		if r.set.Moves(key) {
			return true
		}
	}
	return false
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

// --- Log accessors ---------------------------------------------------------

// MovedTo returns the group a departed key now belongs to and the log
// position of the HandoffOut that froze it. ok is false while the key is
// still owned here.
func (l *Log) MovedTo(key string) (to string, outPos int64, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mig.movedTo(key)
}

// InboundPending reports whether key belongs to a range this group has
// prepared to receive but not yet opened (HandoffPrepare applied, HandoffIn
// not). Ordinary transactions touching such keys are refused with the
// retryable "migrating" verdict; backfill transactions pass.
func (l *Log) InboundPending(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mig.inboundPending(key)
}

// Tombstoned reports whether key belongs to a departed range whose cutover
// is durable in the destination (HandoffTombstone applied): its frozen local
// rows may be scavenged wholesale at the next compaction.
func (l *Log) Tombstoned(key string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.mig.tombstoned(key)
}

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

// HasMigrations reports whether any handoff record has applied to this log.
// It is the cheap gate the hot paths (submit admission, commit verdicts)
// check before consulting the per-key migration fences — a group that never
// migrated pays one mutex round, no range scans.
func (l *Log) HasMigrations() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.mig.records) > 0
}

// Migrations returns the group's applied handoff records in log order — the
// operator-facing migration status (GroupStatus, txkvctl).
func (l *Log) Migrations() MigrationState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return MigrationState{Records: l.mig.records}.Clone()
}

// MigrationsAt returns the handoff records applied at or below horizon: the
// group's migration state as of that watermark. The record list is
// append-only in log order, so the filtered prefix is exact no matter when
// it is captured relative to the horizon — what snapshot building needs
// (a record above the snapshot horizon must not ship: the restored replica
// replays the positions between horizon and handoff itself, and fencing
// them early would void pre-handoff transactions every other replica
// applied).
func (l *Log) MigrationsAt(horizon int64) MigrationState {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := MigrationState{}
	for _, rec := range l.mig.records {
		if rec.Pos <= horizon {
			out.Records = append(out.Records, rec)
		}
	}
	return out.Clone()
}
