package core

import (
	"sort"
	"strings"
	"time"

	"paxoscp/internal/network"
	"paxoscp/internal/replog"
)

// Ordered range scans (DESIGN.md §16): the service-side page handler. A scan
// is a sequence of KindScan requests at one pinned log position; each request
// returns one page of the prefix's rows in key order plus a resume cursor.
// Nothing is held between pages — the snapshot guarantee comes from the pin
// (PinReads clamps the compaction horizon under it) and the position-aware
// migration fence (ScanFenceAt freezes the handoff view at the pin, so every
// page of the sequence applies identical moved/pending rules even as later
// cutovers apply).

const (
	// scanDefaultPageRows is the page size served when the request leaves
	// Pos at 0; scanMaxPageRows caps what a client may ask for, bounding
	// reply size.
	scanDefaultPageRows = 256
	scanMaxPageRows     = 1024

	// scanExamineBudget caps how many ordered-index rows one request walks
	// before replying with a progress cursor. Under an active migration
	// fence most examined rows of a page can be skipped (moved out or
	// inbound-pending); the budget keeps a single request's cost bounded
	// anyway. A budget-bounded reply may carry fewer rows than the page —
	// even zero — with the cursor advanced; the client just asks again.
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
	if limit > scanMaxPageRows {
		limit = scanMaxPageRows
	}

	fence := lg.ScanFenceAt(ts)
	active := fence.Active()
	prefix := replog.DataPrefix(req.Group)
	region := prefix + req.Value // the user prefix, inside the data region
	after := ""
	if req.Found {
		after = prefix + req.Key // resume after the cursor
	}

	resp := network.Message{
		Kind: network.KindValue, OK: true, TS: ts,
		Combined: active && fence.HasPending(),
	}
	// dests collects the destinations of rows this page skipped as departed:
	// a hint means "a row of your prefix lives over there", so the client
	// must merge that group's pages — and may insist its leg there observes
	// the migration (KV.Scan does both). Hinting only observed destinations,
	// not every departed range, keeps steady-state scans from chasing groups
	// that hold nothing of the prefix.
	var dests map[string]bool
	finish := func() network.Message {
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
	examined := 0
	for {
		rows, more, serr := s.store.ScanPrefix(region, after, limit, ts)
		if serr != nil {
			return network.Status(false, serr.Error())
		}
		if resp.Keys == nil { // sized once: unfenced, the reply holds what this page does
			resp.Keys = make([]string, 0, len(rows))
			resp.Vals = make([]string, 0, len(rows))
			resp.Founds = make([]bool, 0, len(rows))
		}
		for _, row := range rows {
			bare := row.Key[len(prefix):]
			examined++
			if active {
				if to, moved := fence.MovedOut(bare); moved {
					// The destination's copy is authoritative from the
					// cutover on; tell the client where this row went.
					if dests == nil {
						dests = make(map[string]bool)
					}
					dests[to] = true
					continue
				}
				if fence.InboundPending(bare) {
					continue // half-copied backfill row; Combined says retry
				}
			}
			resp.Keys = append(resp.Keys, bare)
			resp.Vals = append(resp.Vals, row.Val.Get("v"))
			resp.Founds = append(resp.Founds, active && fence.MovedIn(bare))
			if len(resp.Keys) >= limit {
				resp.Key, resp.Found = bare, true
				return finish()
			}
			if examined >= scanExamineBudget {
				resp.Key, resp.Found = bare, true // progress page
				return finish()
			}
		}
		if !more {
			return finish() // region complete: Found stays false
		}
		if examined >= scanExamineBudget {
			resp.Key, resp.Found = rows[len(rows)-1].Key[len(prefix):], true
			return finish()
		}
		after = rows[len(rows)-1].Key
	}
}
