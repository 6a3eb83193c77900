package core

import (
	"sort"
	"strings"
	"time"

	"paxoscp/internal/network"
	"paxoscp/internal/replog"
)

// Ordered range scans (DESIGN.md §16): the service-side page handlers. A scan
// is a sequence of KindScan requests at one pinned log position; each request
// returns one page of the prefix's rows in key order plus a resume cursor.
// Nothing is held between pages — the snapshot guarantee comes from the pin
// (PinReads clamps the compaction horizon under it) and the position-aware
// migration fence (FenceAt freezes the handoff view at the pin, so every
// page of the sequence applies identical moved/pending rules even as later
// cutovers apply). Every paged handler — this one, the backfill's range
// snapshot and the snapshot transfer — opens with pinPage, ranges over
// kvstore.Store.Rows from the cursor, and leaves the loop when its page is
// cut: by rows, by the examine budget, or by bytes — one budget for the
// three, snapshotPageBytes, so that every page fits a datagram.

const (
	// scanDefaultPageRows is the page size served when the request leaves
	// Pos at 0, and a range snapshot's page; scanMaxPageRows caps what a
	// client may ask for, bounding reply size.
	scanDefaultPageRows = 256
	scanMaxPageRows     = 1024

	// scanExamineBudget caps how many ordered-index rows one scan or range
	// snapshot request walks before replying with a progress cursor. Under
	// an active migration fence most examined rows of a scan can be skipped
	// (moved out or inbound-pending), and a moving range is hash-scattered
	// through the key order; the budget keeps a single request's cost
	// bounded anyway. A budget-bounded reply may carry fewer rows than the
	// page — even zero — with the cursor advanced; the client just asks
	// again.
	scanExamineBudget = 2048

	// scanPinFactor scales the service timeout into the read-pin TTL: long
	// enough that a client paging at normal round-trip cadence never loses
	// its snapshot to compaction, short enough that an abandoned scan
	// delays compaction by seconds, not forever. Every page re-pins, so a
	// live scan's pin never expires between pages.
	scanPinFactor = 8
)

// scanPinTTL is the read-pin TTL scan-style handlers register their pinned
// position with (also the backfill's range-snapshot pages).
func scanPinTTL(timeout time.Duration) time.Duration {
	return time.Duration(scanPinFactor) * timeout
}

// pinPage opens every paged handler — scan, range snapshot, snapshot
// transfer: it resolves the position the page is served at, registers it as a
// read pin, and refuses with VerdictCompacted when compaction has passed it.
// The pin is registered before the compaction check, which makes the
// handshake race-free: either the pin lands before any future compaction
// clamps its horizon, or compaction already passed the position and the
// refusal tells the client to restart at a fresh pin. With ok unset the
// refusal is the handler's reply.
func (s *Service) pinPage(group string, pin int64) (ts int64, lg *replog.Log, refusal network.Message, ok bool) {
	ts, err := s.resolveReadTS(group, pin)
	if err != nil {
		return 0, nil, network.Status(false, err.Error()), false
	}
	lg = s.log(group)
	lg.PinReads(ts, scanPinTTL(s.timeout))
	if lg.CompactedTo() > ts {
		return 0, nil, network.Refuse(network.VerdictCompacted, ""), false
	}
	return ts, lg, network.Message{}, true
}

// handleScan serves one page of an ordered prefix scan (wire contract in
// network.KindScan's doc).
func (s *Service) handleScan(req network.Message) network.Message {
	ts, lg, refusal, ok := s.pinPage(req.Group, req.TS)
	if !ok {
		return refusal
	}

	limit := int(req.Pos)
	if limit <= 0 {
		limit = scanDefaultPageRows
	}
	limit = min(limit, scanMaxPageRows)

	fence := lg.FenceAt(ts) // the zero fence of a never-migrated group skips nothing
	prefix := replog.DataPrefix(req.Group)
	after := ""
	if req.Found {
		after = prefix + req.Key // resume after the cursor
	}

	resp := network.Message{
		Kind: network.KindValue, OK: true, TS: ts,
		Combined: fence.HasPending(),
	}
	// The columns start at 16 rows, because a routed scan spreads its page
	// over its groups, and grow fourfold, up to the limit, when full: a
	// 256-row page grows them twice.
	growColumns(&resp, min(limit, 16))
	// dests collects the destinations of rows this page skipped as departed:
	// a hint means "a row of your prefix lives over there", so the client
	// must merge that group's pages — and may insist its leg there observes
	// the migration (KV.Scan does both). Hinting only observed destinations,
	// not every departed range, keeps steady-state scans from chasing groups
	// that hold nothing of the prefix.
	var dests map[string]bool
	examined, size, prev := 0, 0, ""
rows:
	for row, err := range s.store.Rows(prefix+req.Value, after, ts) {
		if err != nil {
			return network.Status(false, err.Error())
		}
		bare := row.Key[len(prefix):]
		examined++
		switch to, _, moved := fence.Moved(bare); {
		case moved:
			// The destination's copy is authoritative from the cutover on;
			// tell the client where this row went.
			if dests == nil {
				dests = make(map[string]bool)
			}
			dests[to] = true
		case fence.Pending(bare):
			// A half-copied backfill row; Combined says retry.
		default:
			v := row.Val.Get("v")
			if size += len(bare) + len(v); size > snapshotPageBytes && len(resp.Keys) > 0 {
				resp.Key, resp.Found = prev, true // full: this row opens the next page
				break rows
			}
			if len(resp.Keys) == cap(resp.Keys) {
				growColumns(&resp, min(limit, 4*len(resp.Keys)))
			}
			resp.Keys = append(resp.Keys, bare)
			resp.Vals = append(resp.Vals, v)
			resp.Founds = append(resp.Founds, fence.MovedIn(bare))
		}
		// A skipped row counts against the budget too: a budget-bounded
		// reply is a progress page, possibly empty.
		if len(resp.Keys) >= limit || examined >= scanExamineBudget {
			resp.Key, resp.Found = bare, true
			break
		}
		prev = bare
	}
	if len(dests) > 0 {
		hints := make([]string, 0, len(dests))
		for d := range dests {
			hints = append(hints, d)
		}
		sort.Strings(hints)
		resp.Value = strings.Join(hints, ",")
	}
	return resp
}

// growColumns gives a scan reply's Keys, Vals and Founds room for n rows,
// keeping the rows they hold. Keys and Vals are cut from one array, so the
// three cost two allocations.
func growColumns(resp *network.Message, n int) {
	kv := make([]string, 2*n)
	resp.Keys = append(kv[:0:n], resp.Keys...)
	resp.Vals = append(kv[n:n], resp.Vals...)
	resp.Founds = append(make([]bool, 0, n), resp.Founds...)
}
