package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/paxos"
	"paxoscp/internal/replog"
)

// Log compaction and snapshot transfer. The write-ahead log and the
// per-position Paxos instance state grow without bound; a deployment
// periodically scavenges everything below a compaction horizon (Megastore
// does the same with its catch-up/scavenging machinery). A replica that
// falls behind the horizon can no longer catch up entry by entry — its
// peers answer fetch requests with a "compacted" marker carrying the
// horizon, and the laggard installs a state snapshot instead, then resumes
// normal per-entry catch-up above the horizon.
//
// Compaction trades history for space: multi-version reads below the
// horizon return kvstore.ErrNotFound afterwards, so the horizon must stay
// comfortably behind any read position still in use.
//
// The log rows and the horizon bookkeeping belong to internal/replog; this
// file contributes the service-owned per-position rows (Paxos acceptor
// state, leader claims), data-version GC, and the snapshot wire format.

// errCompacted is the wire marker a service returns for a fetch of a
// compacted log position.
const errCompacted = "compacted"

// Compact scavenges everything strictly below the given horizon: old data
// item versions, decided log entries, Paxos acceptor state, and leader
// claims. The horizon is clamped to the locally applied position. It
// returns the effective horizon.
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
		fence := lg.ScanFenceAt(to)
		tombGC := fence.Active()
		err := s.store.WalkPrefix(prefix, kvstore.Latest, func(row kvstore.ScanRow) {
			if tombGC && fence.Tombstoned(row.Key[len(prefix):]) {
				s.store.Delete(row.Key)
				return
			}
			s.store.GC(row.Key, to)
		})
		if err != nil {
			return // store closed mid-compaction; nothing to scavenge
		}
		// Acceptor and claim rows strictly below the horizon disappear
		// (replog drops the log rows themselves).
		for pos := from; pos < to; pos++ {
			s.store.Delete(paxos.StateKey(group, pos))
			s.store.Delete(claimKey(group, pos))
		}
	})
}

// CompactedTo returns the group's compaction horizon: log entries strictly
// below it have been scavenged locally. Zero means never compacted.
func (s *Service) CompactedTo(group string) int64 {
	return s.log(group).CompactedTo()
}

// snapshot is the gob-encoded state transferred to a laggard replica: the
// newest surviving version of every data item at or below the horizon, plus
// the prevailing master epoch state at the horizon — without it a restored
// replica whose establishing claim entry lies below the horizon could not
// fence later entries (DESIGN.md §11). Blobs from pre-epoch peers decode
// with a zero Epoch, which installs as "no epoch observed".
type snapshot struct {
	Group   string
	Horizon int64
	Rows    []snapshotRow
	Epoch   replog.EpochState
	// Migrations carries the handoff records applied at or below the horizon
	// (DESIGN.md §15): a replica restored past a HandoffOut position must
	// still fence writes into the departed range. Pre-migration blobs decode
	// with an empty record list.
	Migrations replog.MigrationState
}

type snapshotRow struct {
	Key string // data item key (without the data/<group>/ prefix)
	TS  int64  // version timestamp = log position of the writing entry
	Val string
}

// buildSnapshot captures the group's data state at the applied horizon. The
// replog watermark only advances after a batch's data writes have landed, so
// the rows are complete at the horizon; ReadStable excludes a concurrent
// compaction from GC-ing the versions visible there mid-scan.
func (s *Service) buildSnapshot(group string) ([]byte, error) {
	prefix := replog.DataPrefix(group)
	var snap snapshot
	lg := s.log(group)
	err := lg.ReadStable(func(horizon int64, epoch replog.EpochState) error {
		snap = snapshot{Group: group, Horizon: horizon, Epoch: epoch, Migrations: lg.MigrationsAt(horizon)}
		// One pass over the ordered index at the horizon replaces the old
		// sort-every-key-then-point-read loop; each page arrives already
		// resolved at the horizon.
		return s.store.WalkPrefix(prefix, horizon, func(row kvstore.ScanRow) {
			snap.Rows = append(snap.Rows, snapshotRow{Key: row.Key[len(prefix):], TS: row.TS, Val: row.Val.Get("v")})
		})
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		return nil, fmt.Errorf("core: encode snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// installSnapshot applies a peer's snapshot: data rows land idempotently at
// their original version timestamps in one write batch, and the applied
// watermark jumps to the snapshot's horizon. Entries above the horizon
// continue through normal catch-up.
func (s *Service) installSnapshot(blob []byte) error {
	var snap snapshot
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&snap); err != nil {
		return fmt.Errorf("core: decode snapshot: %w", err)
	}
	lg := s.log(snap.Group)
	if lg.Applied() >= snap.Horizon {
		return nil // already ahead
	}
	writes := make([]kvstore.BatchWrite, 0, len(snap.Rows))
	for _, row := range snap.Rows {
		writes = append(writes, kvstore.BatchWrite{
			Key: dataKey(snap.Group, row.Key), Value: kvstore.PackAttrs("v", row.Val), TS: row.TS,
		})
	}
	if err := s.store.ApplyBatch(writes); err != nil {
		return fmt.Errorf("core: install snapshot %s: %w", snap.Group, err)
	}
	return lg.InstallSnapshot(snap.Horizon, snap.Epoch, snap.Migrations)
}

// handleSnapshot serves a snapshot request.
func (s *Service) handleSnapshot(req network.Message) network.Message {
	blob, err := s.buildSnapshot(req.Group)
	if err != nil {
		return network.Status(false, err.Error())
	}
	return network.Message{Kind: network.KindValue, OK: true, Payload: blob, TS: s.lastApplied(req.Group)}
}

// fetchSnapshot pulls and installs a snapshot from any peer that has one.
func (s *Service) fetchSnapshot(ctx context.Context, group string) error {
	if s.transport == nil {
		return fmt.Errorf("core: no peers for snapshot transfer")
	}
	var lastErr error = fmt.Errorf("core: no peer served a snapshot for %q", group)
	for _, dc := range s.transport.Peers() {
		if dc == s.dc {
			continue
		}
		cctx, cancel := context.WithTimeout(ctx, s.timeout)
		resp, err := s.transport.Send(cctx, dc, network.Message{Kind: network.KindSnapshot, Group: group})
		cancel()
		if err != nil || !resp.OK {
			if err != nil {
				lastErr = err
			}
			continue
		}
		if err := s.installSnapshot(resp.Payload); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}
