package wal

import (
	"fmt"
	"sort"
	"strings"
)

// Txn is a committed (or candidate) read/write transaction: the union of its
// read set and write set, plus the log position its reads were served at.
type Txn struct {
	// ID uniquely identifies the transaction (client-assigned).
	ID string
	// Origin is the datacenter the issuing client is local to. Used for the
	// per-position leader optimization and per-DC reporting (Fig. 8).
	Origin string
	// ReadPos is the log position all of the transaction's reads were served
	// at (paper property A2).
	ReadPos int64
	// ReadSet lists the keys read (excluding keys first written inside the
	// transaction, per property A1).
	ReadSet []string
	// Writes maps written keys to their new values.
	Writes map[string]string
	// Backfill marks a migration backfill write (DESIGN.md §15): the
	// migration coordinator copying a moving range into its new group. A
	// backfill transaction passes the receiving group's inbound "migrating"
	// fence, which refuses every ordinary transaction touching the range
	// until the HandoffIn entry opens it.
	Backfill bool
}

// Clone returns a deep copy of t.
func (t Txn) Clone() Txn {
	out := t
	out.ReadSet = append([]string(nil), t.ReadSet...)
	out.Writes = make(map[string]string, len(t.Writes))
	for k, v := range t.Writes {
		out.Writes[k] = v
	}
	return out
}

// IsReadOnly reports whether t contains no writes. Read-only transactions are
// never written to the log (paper §3.2).
func (t Txn) IsReadOnly() bool { return len(t.Writes) == 0 }

// String renders a compact human-readable form, e.g. "t1[r:a,b w:c]".
func (t Txn) String() string {
	ws := make([]string, 0, len(t.Writes))
	for k := range t.Writes {
		ws = append(ws, k)
	}
	sort.Strings(ws)
	rs := append([]string(nil), t.ReadSet...)
	sort.Strings(rs)
	return fmt.Sprintf("%s[r:%s w:%s]", t.ID, strings.Join(rs, ","), strings.Join(ws, ","))
}

// Entry is the value stored in one log position: an ordered list of
// transactions. Order matters — the list is one-copy equivalent to the serial
// history that commits its transactions in list order (paper Theorem 3).
//
// Two fencing fields ride along for the leader-based protocol (DESIGN.md
// §11). Epoch stamps the master epoch the entry was proposed under; 0 means
// unfenced (Basic and CP clients). Master,
// when non-empty, marks the entry as a master-claim entry: it carries no
// transactions and instead claims (or, at the prevailing epoch, renews the
// lease of) mastership of the group for the named datacenter, effective for
// all later log positions.
type Entry struct {
	Txns []Txn

	// Epoch is the master epoch this entry was proposed under (0 = unfenced).
	// A transaction entry whose epoch is below the epoch prevailing at its
	// position is void: it commits nothing (fencing invariant F2).
	Epoch int64
	// Master, when non-empty, makes this a claim entry: the named datacenter
	// claims mastership of the group at Epoch (or renews its lease when Epoch
	// is already prevailing).
	Master string
	// Handoff, when non-nil, makes this a migration handoff entry: one phase
	// of a live range migration between groups (DESIGN.md §15). Handoff
	// entries carry no transactions and are epoch-stamped like any other
	// master-proposed entry, so they are fenced normally.
	Handoff *Handoff
}

// NewEntry returns an Entry holding the given transactions in order.
func NewEntry(txns ...Txn) Entry {
	e := Entry{Txns: make([]Txn, 0, len(txns))}
	for _, t := range txns {
		e.Txns = append(e.Txns, t.Clone())
	}
	return e
}

// NoOp returns the empty entry used to fill a log position that is learned to
// be permanently undecided during explicit recovery. It commits nothing.
func NoOp() Entry { return Entry{} }

// NewClaim returns a master-claim entry: master claims (epoch strictly above
// the prevailing one) or renews (epoch equal to the prevailing one)
// mastership of the group for every later log position (DESIGN.md §11).
func NewClaim(epoch int64, master string) Entry {
	return Entry{Epoch: epoch, Master: master}
}

// IsClaim reports whether e is a master-claim entry.
func (e Entry) IsClaim() bool { return e.Master != "" }

// IsNoOp reports whether e commits no transactions.
func (e Entry) IsNoOp() bool { return len(e.Txns) == 0 }

// Clone returns a deep copy of e.
func (e Entry) Clone() Entry {
	out := Entry{Txns: make([]Txn, 0, len(e.Txns)), Epoch: e.Epoch, Master: e.Master,
		Handoff: e.Handoff.Clone()}
	for _, t := range e.Txns {
		out.Txns = append(out.Txns, t.Clone())
	}
	return out
}

// Contains reports whether e includes a transaction with the given ID.
func (e Entry) Contains(txnID string) bool {
	for _, t := range e.Txns {
		if t.ID == txnID {
			return true
		}
	}
	return false
}

// Writes returns the union of the write sets of all transactions in e.
func (e Entry) Writes() map[string]string {
	out := make(map[string]string)
	for _, t := range e.Txns {
		for k, v := range t.Writes {
			out[k] = v // later txns in the list overwrite earlier ones
		}
	}
	return out
}

// WritesAny reports whether a transaction of e writes any of keys: whether a
// transaction reading keys conflicts with e.
func (e Entry) WritesAny(keys []string) bool {
	for _, t := range e.Txns {
		for _, k := range keys {
			if _, ok := t.Writes[k]; ok {
				return true
			}
		}
	}
	return false
}

// SerializableOrder reports whether the list order of e is one-copy
// serializable on its own: no transaction reads a key written by any
// preceding transaction in the list (paper §5, Combination). All transactions
// in a combined entry share the same read position, so a read of a key
// written earlier in the list would observe a stale version.
func (e Entry) SerializableOrder() bool {
	for i, t := range e.Txns {
		if (Entry{Txns: e.Txns[:i]}).WritesAny(t.ReadSet) {
			return false
		}
	}
	return true
}

// String renders the entry as "[t1[...] t2[...]]", claim entries as
// "[claim e<epoch>@<master>]", and epoch-stamped entries with an "e<epoch>:"
// prefix.
func (e Entry) String() string {
	if e.IsClaim() {
		return fmt.Sprintf("[claim e%d@%s]", e.Epoch, e.Master)
	}
	if e.IsHandoff() {
		return e.handoffString()
	}
	prefix := ""
	if e.Epoch != 0 {
		prefix = fmt.Sprintf("e%d:", e.Epoch)
	}
	if e.IsNoOp() {
		return "[" + prefix + "noop]"
	}
	parts := make([]string, len(e.Txns))
	for i, t := range e.Txns {
		parts[i] = t.String()
	}
	return "[" + prefix + strings.Join(parts, " ") + "]"
}
