// Package replog is the per-group replicated-log subsystem of the
// transaction tier (DESIGN.md §4). A Log owns one group's decided-entry
// log, its contiguously-applied watermark, and a decoded-entry cache;
// decided positions drain into kvstore write batches on a shared apply
// pool — GOMAXPROCS workers keyed by GroupShard, one worker draining a
// given log at a time, so per-group apply order is untouched while many
// groups apply in parallel (pool.go, DESIGN.md §13). A standalone Log
// opened outside a Set keeps its own apply goroutine.
//
// The seed kept all of this implicit: string-keyed rows in the datacenter's
// key-value store, a coarse per-group apply mutex in the Transaction
// Service, and meta-row round trips on every read-position request. The Log
// keeps its durable state in store rows (see keys.go) — services stay
// stateless in the paper's sense, a restart rebuilds the Log from the store,
// and on a disk-backed store (DESIGN.md §14) that covers real crashes — but
// the hot-path state (watermark, pending entries, decoded cache) lives in
// memory, and readers block on the watermark through WaitApplied instead of
// polling the meta row.
//
// A position has one row, and the vote is the entry: the row is the Paxos
// acceptor's state (internal/paxos) until the position is decided, and the
// log entry from then on. AppendChosen validates an entry, refuses a second
// value for a decided position (invariant R1) and queues it, in memory; the
// drain lands one kvstore.ApplyBatch — one sync — per pass, however many
// apply messages delivered the entries: the rows, in their decided form, of
// the queued positions whose stored vote cannot stand as the entry
// (paxos.VoteStands) or which no watermark will cover yet, then the data
// writes of the contiguous run above the watermark, then the meta row that
// records the run. That order is what recovery trusts: a recovered watermark
// never leads its entries — votes or decided rows — or its data (invariant
// D3), and a waiter released by a pass — WaitApplied, or WaitLogged for an
// entry still above a gap — has its entry durable (invariant R2). One rule,
// decidedRow, says what a stored row means; every reader goes through it.
//
// # Epoch fencing
//
// The apply path is also where master-epoch fencing happens (DESIGN.md
// §11). Entries apply in log order, so the prevailing epoch at each
// position — established by master-claim entries (wal.Entry.IsClaim) — is a
// deterministic function of the log prefix, identical at every replica. A
// transaction entry stamped with a superseded epoch is void: none of its
// writes land, anywhere (invariant F2), and Voided reports it so a deposed
// master never reports such an entry committed. Epoch state is durable in
// the meta row, which is also a snapshot transfer's header (SnapshotHeader,
// ParseSnapshotHeader, InstallSnapshot); the lease
// timestamp (LeaseState) is deliberately local and volatile — leases bound
// failover time, fencing provides safety.
//
// Window, the in-flight accounting for the master's pipelined submit path,
// also lives here (DESIGN.md §8).
package replog
