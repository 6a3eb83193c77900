// Package cluster assembles a complete multi-datacenter deployment of the
// transactional datastore (paper Figure 1): one key-value store, Paxos
// acceptor, and Transaction Service per datacenter, wired together over a
// simulated network with the paper's testbed topologies, plus fault
// injection (datacenter outages, message loss, partitions).
//
// Config carries the deployment knobs a test or benchmark tunes: the
// topology (PaperTopology specs like "VVV" or "COV"), simulated-network
// scale/jitter/loss, the message-loss detection timeout, the master submit
// pipeline's window and combination cap (DESIGN.md §8), the master lease
// duration for epoch-fenced failover (DESIGN.md §11), and the sharded
// transaction group count (DESIGN.md §12) — Groups builds the cluster's
// key placement, spreads per-group masterships across the datacenters
// (MasterOf), and NewKV hands out routed clients over it.
//
// Config.DataDir puts each datacenter's store on the disk engine
// (DESIGN.md §14, one subdirectory per datacenter, group commit), which
// unlocks the hard end of the fault surface: Crash hard-kills a datacenter —
// simulated power loss, unflushed WAL bytes discarded, in-flight messages
// dropped — and Restart recovers it from its data directory, exactly as a
// kill -9'd txkvd would. Disk-backed
// deployments should construct with Open, which surfaces store-recovery
// failures (corrupt or incomplete data directories) as errors; New is the
// panic-on-error convenience wrapper for sim and test call sites, where a
// bad config is a programming error.
//
// The fault-injection surface (SetDown, Partition, Heal, Recover, Crash,
// Restart) is what the nemesis and failover test batteries drive; every
// such test ends by recovering all replicas and running the package history
// checker over the merged logs.
package cluster
