package core

// Fail-stop → failover (DESIGN.md §14). A replica whose durability engine
// has poisoned (fsync error, ENOSPC, torn write — kvstore fail-stop) must
// not limp along as master, timing clients out while its lease keeps
// renewing through entries it can no longer apply. The contract:
//
//   - Mutating requests are refused up front with VerdictReplicaFailed, the
//     engine's failure as the detail: definitive at this replica (its disk
//     is gone for the life of the process), retryable elsewhere (nothing
//     reached the log) — clients hop off it (route.go). Reads keep serving
//     the in-memory image, and the replica keeps answering catch-up fetches
//     so its peers can absorb everything it committed before dying.
//   - The replica declines to claim or renew mastership. Combined with the
//     submit refusal (no new stamped entries), its lease goes silent and
//     lapses within one lease duration, at which point a healthy peer's
//     next submit claims the group's next epoch — the ordinary dead-master
//     failover path, no new machinery.
//   - Engine health is surfaced in GroupStatus (Fault, scrub fields) so
//     txkvctl status shows the degraded replica.
//
// The refusal must sit in front of the pipeline, not inside replication:
// a failed master that still places entries would refresh its own lease at
// every peer through the entries it replicates (they decide fine — only
// the local apply fails), wedging the group behind a master that can
// commit nothing.

// replicaFault reports this service's storage-engine failure, nil while
// healthy.
func (s *Service) replicaFault() error {
	return s.store.EngineFailure()
}
