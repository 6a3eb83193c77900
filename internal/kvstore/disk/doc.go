// Package disk is the durable storage engine behind internal/kvstore: an
// append-only write-ahead log with group-commit fsync batching, periodic
// snapshots, and segment rotation + compaction (DESIGN.md §14).
//
// Everything above the store — Paxos acceptor rows, replicated-log rows,
// meta/claim/data rows — already lives as kvstore rows, so attaching this
// engine makes the entire replica durable: a hard-killed txkvd restarts,
// replays the WAL tail over the newest snapshot, and rejoins with its
// promises, votes, applied watermark, and epoch intact.
//
// Layout of a data directory:
//
//	wal-<startseq>.log   log segments; records are numbered positionally
//	snap-<seq>.snap      kvstore snapshot covering sequence numbers <= seq
//	.disk-*              snapshot temp files (deleted on open)
//
// Both kinds of file hold the one record format (kvstore/record.go): a
// snapshot is a stream of the WAL's own OpWrite records between a magic and
// a counting trailer (kvstore.Save), so recovery loads it by replaying it and
// the scrub checks it as it checks a sealed segment, record by record.
//
// The durability contract is the store's mutation protocol (kvstore/engine.go):
// apply in memory and Append under the row lock (pinning WAL order to apply
// order per row), then Sync, then acknowledge. Sync is group commit, the
// engine's one policy: it returns once the record is fsynced, and concurrent
// callers share fsyncs. Nothing is acknowledged before it is on disk, which is
// what Paxos asks of an acceptor's promises and votes. Invariants D1–D3
// and their proof obligations are in DESIGN.md §14; docs/OPERATIONS.md is the
// operator-facing runbook (data-dir layout, snapshot cadence, disk-full
// behavior, recovery log lines).
package disk
