package core

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"

	"paxoscp/internal/deadline"
	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/replog"
)

// Log compaction and snapshot transfer. The write-ahead log and the
// per-position Paxos instance state grow without bound; a deployment
// periodically scavenges everything below a compaction horizon (Megastore
// does the same with its catch-up/scavenging machinery). A replica that
// falls behind the horizon can no longer catch up entry by entry — its
// peers answer fetch requests with VerdictCompacted, carrying the
// horizon, and the laggard installs a state snapshot instead, then resumes
// normal per-entry catch-up above the horizon.
//
// Compaction trades history for space: multi-version reads below the
// horizon return kvstore.ErrNotFound afterwards, so the horizon must stay
// comfortably behind any read position still in use.
//
// The log rows — which hold the acceptor state too — and the horizon
// bookkeeping belong to internal/replog; this file contributes the
// service-owned per-position rows (leader claims), data-version GC, and the
// snapshot transfer.

// Compact scavenges everything strictly below the given horizon: old data
// item versions, decided log entries with the acceptor state they grew out
// of, and leader claims. The horizon is clamped to the locally applied
// position. It returns the effective horizon.
func (s *Service) Compact(group string, horizon int64) (int64, error) {
	lg := s.log(group)
	prefix := replog.DataPrefix(group)
	return lg.Compact(horizon, func(from, to int64) {
		// Data rows: drop versions below the horizon (reads at >= horizon
		// are unaffected, see kvstore.GC). Rows of a tombstoned range — a
		// departed range whose cutover is durable at the destination
		// (DESIGN.md §15) — are deleted wholesale: the frozen versions can
		// never be read as current again, and new writes are fenced (M1).
		// The tombstone check is evaluated at the effective horizon `to`, not
		// at the watermark: a read pin below the tombstone position clamps
		// `to` under it, and the pinned scan may still serve those frozen
		// rows, so their wholesale delete waits for the pin to clear.
		// Paged over the ordered index instead of sorting every key.
		fence := lg.FenceAt(to)
		for row, err := range s.store.Rows(prefix, "", kvstore.Latest) {
			switch {
			case err != nil:
				return // store closed mid-compaction; nothing to scavenge
			case fence.Tombstoned(row.Key[len(prefix):]):
				s.store.Delete(row.Key)
			default:
				s.store.GC(row.Key, to)
			}
		}
		// Claim rows strictly below the horizon disappear (replog drops the
		// log rows themselves).
		for pos := from; pos < to; pos++ {
			s.store.Delete(claimKey(group, pos))
		}
	})
}

// CompactedTo returns the group's compaction horizon: log entries strictly
// below it have been scavenged locally. Zero means never compacted.
func (s *Service) CompactedTo(group string) int64 {
	return s.log(group).CompactedTo()
}

// Snapshot transfer (wire contract: network.KindSnapshot; DESIGN.md §4). A
// snapshot of a group at horizon H is a stream of WAL records: the header —
// the group's meta row as a replica restored at H holds it — then every data
// row's newest version at or below H. It is served in pages like a scan: the
// read pin at H holds the image between pages, and a pin compaction has
// passed is refused, so a laggard never stitches two horizons together.

const (
	// snapshotPageBytes is every paged handler's byte budget: a snapshot
	// page's records, or a scan or range-snapshot page's keys and values.
	// With the reply's envelope and length prefixes it is well inside the
	// transport's 65 507-byte datagram. A page carries at least one row,
	// whatever its size.
	snapshotPageBytes = 32 << 10
	// snapshotRestarts bounds how often one transfer starts over because the
	// peer compacted past its pin between pages.
	snapshotRestarts = 3
)

// handleSnapshot serves one page of a snapshot transfer. A request without a
// cursor starts one: the page is pinned at the local watermark and opens with
// the header composed for it.
func (s *Service) handleSnapshot(req network.Message) network.Message {
	prefix := replog.DataPrefix(req.Group)
	pin, after := req.TS, prefix+req.Key // resume after the cursor
	var page []byte
	if !req.Found {
		var header kvstore.Packed
		pin, header = s.log(req.Group).SnapshotHeader()
		page = kvstore.AppendRecord(nil, kvstore.Mutation{Op: kvstore.OpWrite, Key: replog.MetaKey(req.Group), TS: pin, Value: header})
		after = ""
	}
	h, _, refusal, ok := s.pinPage(req.Group, pin)
	if !ok {
		return refusal
	}
	resp := network.Message{Kind: network.KindValue, OK: true, TS: h}
	for row, err := range s.store.Rows(prefix, after, h) {
		if err != nil {
			return network.Status(false, err.Error())
		}
		with := kvstore.AppendRecord(page, kvstore.Mutation{Op: kvstore.OpWrite, Key: row.Key, TS: row.TS, Value: row.Val})
		if len(with) > snapshotPageBytes && len(page) > 0 {
			// Full: this row opens the next page.
			resp.Key, resp.Found = strings.TrimPrefix(after, prefix), true
			break
		}
		page, after = with, row.Key
	}
	resp.Payload = page
	return resp
}

// fetchSnapshot installs a snapshot from the first peer that serves one ahead
// of the local watermark.
func (s *Service) fetchSnapshot(ctx context.Context, group string) error {
	if s.transport == nil {
		return fmt.Errorf("core: no peers for snapshot transfer")
	}
	var lastErr error = fmt.Errorf("core: no peer served a snapshot for %q", group)
	for _, dc := range s.transport.Peers() {
		if dc == s.dc {
			continue
		}
		if lastErr = s.installFrom(ctx, dc, group); lastErr == nil {
			return nil
		}
	}
	return lastErr
}

// installFrom pulls a snapshot of group from one peer and installs it. Each
// page's rows land as it arrives (idempotent, and above the local watermark
// unless already here, so no read sees them); the watermark jumps only after
// the last page, so a crash in between recovers the old watermark over rows a
// retried transfer lands again (D3). A page is outside input: one that fails
// validation ends the transfer with none of it applied.
func (s *Service) installFrom(ctx context.Context, dc, group string) error {
	fail := func(err error) error { return fmt.Errorf("core: snapshot of %s from %s: %w", group, dc, err) }
	lg := s.log(group)
	start := network.Message{Kind: network.KindSnapshot, Group: group, TS: network.ResolvePos}
	var (
		h     int64 // the transfer's horizon, set by its first page
		epoch replog.EpochState
		mig   replog.MigrationState
	)
	for req, restarts := start, 0; ; {
		cctx := deadline.Start(ctx, s.timeout)
		resp, err := s.transport.Send(cctx, dc, req)
		cctx.End()
		first := !req.Found
		switch {
		case err != nil:
			return fail(err)
		case !resp.OK && resp.Verdict == network.VerdictCompacted && !first && restarts < snapshotRestarts:
			req, restarts = start, restarts+1 // the pin is gone: start over at a fresh one
			continue
		case !resp.OK:
			return fail(newRefusal(dc, resp))
		case first && resp.TS <= lg.Applied():
			return fail(fmt.Errorf("its horizon %d is not ahead of ours", resp.TS))
		case first:
			h = resp.TS
		case resp.TS != h:
			return fail(fmt.Errorf("a page at horizon %d in a transfer pinned at %d", resp.TS, h))
		}
		page := bufio.NewReader(bytes.NewReader(resp.Payload))
		if first {
			if epoch, mig, err = readSnapshotHeader(page, group, h); err != nil {
				return fail(err)
			}
		}
		rows, err := readSnapshotRows(page, replog.DataPrefix(group), h)
		if err == nil {
			err = s.store.ApplyBatch(rows)
		}
		if err != nil {
			return fail(err)
		}
		if !resp.Found {
			if err := lg.InstallSnapshot(h, epoch, mig); err != nil {
				return err
			}
			s.dropClaims(group, h)
			return nil
		}
		req = network.Message{Kind: network.KindSnapshot, Group: group, TS: h, Key: resp.Key, Found: true}
	}
}

// dropClaims deletes the group's leader claims at or below an installed
// horizon: Compact scavenges only above the horizon it starts from, so like
// the log rows InstallSnapshot deletes they would otherwise stay for good.
func (s *Service) dropClaims(group string, horizon int64) {
	prefix := claimPrefix + group + "/"
	for row, err := range s.store.Rows(prefix, "", kvstore.Latest) {
		if err != nil {
			return // the store closed mid-walk: the rows stay, which costs space
		}
		if pos, err := strconv.ParseInt(row.Key[len(prefix):], 10, 64); err == nil && pos <= horizon {
			s.store.Delete(row.Key)
		}
	}
}

// readSnapshotHeader reads the record a transfer's first page opens with: the
// group's meta row for horizon h, every field of which must parse.
func readSnapshotHeader(page *bufio.Reader, group string, h int64) (replog.EpochState, replog.MigrationState, error) {
	m, err := kvstore.ReadRecord(page)
	if err != nil || m.Op != kvstore.OpWrite || m.Key != replog.MetaKey(group) {
		return replog.EpochState{}, replog.MigrationState{}, fmt.Errorf("the first page does not open with the header (key %q, %v)", m.Key, err)
	}
	last, epoch, mig, err := replog.ParseSnapshotHeader(m.Value)
	if err == nil && last != h {
		err = fmt.Errorf("a header for horizon %d in a transfer pinned at %d", last, h)
	}
	return epoch, mig, err
}

// readSnapshotRows reads the rest of a page: whole records, each a version at
// or below h of a row under prefix.
func readSnapshotRows(page *bufio.Reader, prefix string, h int64) (rows []kvstore.BatchWrite, err error) {
	for {
		m, err := kvstore.ReadRecord(page)
		switch {
		case err == io.EOF:
			return rows, nil
		case err != nil:
			return nil, err
		case m.Op != kvstore.OpWrite || !strings.HasPrefix(m.Key, prefix) || m.TS > h:
			return nil, fmt.Errorf("record (op %d) %q@%d is not a version of a row under %s at or below %d", m.Op, m.Key, m.TS, prefix, h)
		}
		rows = append(rows, kvstore.BatchWrite{Key: m.Key, Value: m.Value, TS: m.TS})
	}
}
