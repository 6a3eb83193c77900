package replog

import (
	"sort"
	"time"
)

// Read pins and the position-aware migration fence for ordered scans
// (DESIGN.md §16). A streaming scan serves many pages at one pinned log
// position; between pages nothing is held, so compaction could otherwise GC
// the versions the scan is still reading. PinReads registers the position
// with a TTL and Compact clamps its effective horizon to the lowest
// unexpired pin. The TTL (rather than an explicit release) makes an
// abandoned scan self-cleaning: a client that vanishes mid-sequence delays
// compaction by one TTL, never forever.

// PinReads keeps the compaction horizon at or below pos until the TTL
// expires, extending an existing pin at the same position when the new
// expiry is later. It synchronizes with any in-flight Compact (briefly
// taking its lock), so the handshake
//
//	lg.PinReads(ts, ttl); if lg.CompactedTo() > ts { refuse }
//
// is race-free: after PinReads returns, either the pin was registered
// before any future compaction clamps — holding the horizon at or below
// pos — or a compaction already moved past pos, and the CompactedTo check
// sees it.
func (l *Log) PinReads(pos int64, ttl time.Duration) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	if exp := now.Add(ttl); !l.pins[pos].After(exp) {
		l.pins[pos] = exp
	}
	// Every page of every scan comes through here, so the map is not walked
	// per call. Expired pins are dropped once it holds twice what the last
	// walk kept (and 16 more, so that a small map is not walked for every new
	// position): a constant per pin registered, and never more than twice the
	// pins one TTL of scans holds live. Until then an expired pin only takes
	// space — Compact goes by expiry, not by presence.
	if len(l.pins) > 2*l.pinsKept+16 {
		l.prunePinsLocked(now)
	}
}

// prunePinsLocked drops the expired read pins and returns the lowest position
// an unexpired one holds (false when none does). Caller must hold l.mu.
func (l *Log) prunePinsLocked(now time.Time) (lowest int64, pinned bool) {
	for pos, exp := range l.pins {
		l.pinVisits++
		if exp.Before(now) {
			delete(l.pins, pos)
		} else if !pinned || pos < lowest {
			lowest, pinned = pos, true
		}
	}
	l.pinsKept = len(l.pins)
	return lowest, pinned
}

// ScanFence is the migration fence evaluated at one pinned log position: the
// derived handoff state a scan at that position must respect, frozen so
// every page of the sequence applies identical rules even as later handoff
// entries apply. Build one per page with ScanFenceAt. The zero value (no
// handoff records at or below the position) fences nothing.
type ScanFence struct {
	group string
	st    migState
}

// ScanFenceAt returns the fence at ts: the view derived from handoff records
// applied at positions at or below ts. Records above ts are invisible — a
// scan pinned before a cutover must keep serving the range from the source,
// exactly as point reads at that position would.
func (l *Log) ScanFenceAt(ts int64) ScanFence {
	l.mu.Lock()
	defer l.mu.Unlock()
	f := ScanFence{group: l.group}
	if len(l.mig.records) == 0 {
		return f
	}
	var recs []HandoffRecord
	for _, rec := range l.mig.records {
		if rec.Pos <= ts {
			recs = append(recs, rec)
		}
	}
	f.st.rebuild(l.group, recs)
	return f
}

// MovedOut returns the destination group when key belongs to a range whose
// HandoffOut applied at or below the fence position: the source must not
// serve it, because the destination's copy is authoritative from the cutover
// on and serving the frozen source rows could miss the final delta.
func (f *ScanFence) MovedOut(key string) (to string, ok bool) {
	to, _, ok = f.st.movedTo(key)
	return to, ok
}

// InboundPending reports whether key sits in a range this group had prepared
// but not yet opened at the fence position: the backfill may be incomplete,
// so the rows that exist locally must not be served as scan results yet.
func (f *ScanFence) InboundPending(key string) bool {
	return f.st.inboundPending(key)
}

// MovedIn reports whether key sits in a range whose HandoffIn applied at or
// below the fence position: the row migrated here. The scan reply marks such
// rows so a client merging source and destination pages pinned on either
// side of a cutover can prefer the destination's copy.
func (f *ScanFence) MovedIn(key string) bool {
	for _, r := range f.st.in {
		if r.set.Moves(key) {
			return true
		}
	}
	return false
}

// Tombstoned reports whether key sits in a departed range whose
// HandoffTombstone applied at or below the fence position. Compaction uses
// this horizon-aware form for wholesale scavenge: rows tombstoned above the
// effective horizon stay until read pins below the tombstone expire.
func (f *ScanFence) Tombstoned(key string) bool {
	return f.st.tombstoned(key)
}

// Dests returns the destination groups of every range departed at the fence
// position, sorted and deduplicated. Scan replies carry them as routing
// hints: unlike a per-key "moved" verdict, a scan must tell the client about
// every destination whose pages it needs, including groups the client's
// stale placement does not know exist.
func (f *ScanFence) Dests() []string {
	seen := map[string]bool{}
	for _, r := range f.st.out {
		seen[r.rec.To] = true
	}
	out := make([]string, 0, len(seen))
	for g := range seen {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// HasPending reports whether any inbound range was prepared but unopened at
// the fence position — the signal a scanning client uses to retry this
// group after the cutover instead of treating its silence as emptiness.
func (f *ScanFence) HasPending() bool {
	return len(f.st.inPend) > 0
}
