// Package core implements the paper's transaction tier (§2.2, §4, §5): the
// Transaction Service that fronts each datacenter's key-value store and the
// Transaction Client library that applications link to run transactions.
//
// # Commit protocols
//
// Three commit protocols hide behind one Client API (select with
// Config.Protocol):
//
//   - Basic: the basic Paxos commit protocol of §4.1 (Algorithms 1 and 2),
//     modeled on Megastore — one transaction per log position; concurrent
//     transactions competing for a position abort even when they do not
//     conflict ("concurrency prevention").
//   - CP: Paxos-CP (§5) — the paper's contribution. Non-conflicting
//     concurrent transactions are combined into a single log position when
//     no value can yet have a majority, and a transaction that loses a
//     position to a non-conflicting winner is promoted to compete for the
//     next position instead of aborting.
//   - Master: the leader-based design the paper sketches in §7. One
//     long-term master per group sequences transactions through the
//     pipelined, windowed submit path (pipeline.go, DESIGN.md §8), with
//     combination at the master and promotion on lost races.
//
// Every Paxos instance in the package runs through one driver,
// paxos.Proposer.Decide, after whatever fast round its caller has: a
// client's (commit.go), a master's fallback (master.go) and a service
// learning a missing position (Service.learn). Each passes its own ballot
// identity, value rule and pause, and announces the decision its own way —
// a client notifies, a service applies (DESIGN.md §3, "One driver"). A
// service proposes under one identity of its own, from the top of the
// identity space that NewClient refuses (DESIGN.md §11).
//
// # Service
//
// Service answers the whole wire protocol (AsyncHandler): Paxos prepare/accept/
// apply, reads (single and batched multi-key, at explicit positions or the
// lazy watermark), log fetch and snapshot transfer for catch-up, submit for
// the master path, and the admin plane (stats, compaction). Decided entries
// land through the per-group replicated log (package replog), which owns
// the applied watermark readers block on.
//
// AsyncHandler is the one request entry point (dispatch.go, DESIGN.md §13):
// every request but applies and submits runs on a goroutine of its own, as
// the paper's service processes do. An apply lands in the log and is
// answered by the drain that makes it durable, and a submit enters the
// master pipeline asynchronously: no goroutine is held while a position
// replicates, and a submit arriving at a full queue is refused fast with the
// retryable VerdictOverloaded (admission control, WithSubmitQueue) instead
// of queueing without bound.
//
// A service that will not serve a request says why with a network.Verdict
// (the reply's Err is text for people); what a client does with each verdict
// is one table, and following a refusal from replica to replica one loop
// (route.go), which the client and the migration coordinator both send through.
//
// # Master leases and epoch fencing
//
// Mastership is epoch-fenced (lease.go, DESIGN.md §11): a master claims a
// per-group monotonic epoch by committing a claim entry through the group's
// own Paxos log, stamps every entry it proposes with that epoch, and renews
// a time-bounded lease through its own committed traffic. Apply-time
// fencing voids entries from superseded epochs, so two datacenters that
// both believe they are master — the split-brain window of a partition —
// can never both commit. ClaimMastership is the takeover entry point;
// clients that submit to a deposed master are redirected by hint
// (VerdictNotMaster), and a deposed service stands off with a per-epoch claim
// backoff before re-contending, so a sustained asymmetric partition cannot
// make mastership ping-pong. The epoch machinery is always on; Basic and CP
// clients are unaffected (their entries are unstamped and never fenced).
//
// # Sharded keyspace
//
// KV is the routed facade over many transaction groups (kv.go, DESIGN.md
// §12): a Router (internal/placement) maps each key to its owning group, and
// one loop runs Get, Put, Update and ReadMulti as one leg per owning group,
// concurrently, following a live migration's moved and migrating verdicts
// between groups (DESIGN.md §15). ReadMulti merges replies into input order
// with per-group snapshot positions reported; Scan shares the loop's fan-out
// and budget. Config.MasterFor routes one
// client's Master-protocol commits to each group's own master. Group-local
// transaction semantics are untouched — there is no cross-group
// serializability to offer (§2.1), and the facade does not pretend
// otherwise.
//
// A live migration moves a key range between groups (migrate.go, DESIGN.md
// §15). A replica asks about it through one replog.Fence: a read and a placed
// batch ask the fence at the applied watermark, a scan page and a compaction
// the fence at their pin.
//
// The transaction tier guarantees one-copy serializability (Theorems 2 and
// 3); package history provides the checker the tests use to verify it,
// including the fencing rules.
package core
