package replog

import "time"

// Read pins for ordered scans (DESIGN.md §16). A streaming scan serves many
// pages at one pinned log position (its migration rules come from
// Log.FenceAt at that position); between pages nothing is held, so
// compaction could otherwise GC the versions the scan is still reading.
// PinReads registers the position with a TTL and Compact clamps its
// effective horizon to the lowest unexpired pin. The TTL (rather than an
// explicit release) makes an abandoned scan self-cleaning: a client that
// vanishes mid-sequence delays compaction by one TTL, never forever.

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
