// Package wal models the replicated write-ahead log of paper §3.2.
//
// Each transaction group has one log. A log position holds one Entry. Under
// the basic Paxos commit protocol an Entry carries exactly one transaction;
// under Paxos-CP it carries an ordered list of non-conflicting transactions
// (the "combination" enhancement, §5). The Entry itself is the value agreed
// on by one Paxos instance.
//
// Two fencing fields extend the model for the leader-based protocol
// (DESIGN.md §11): Entry.Epoch stamps the master epoch an entry was
// proposed under (0 = unfenced, as Basic and CP clients propose), and a
// claim entry (Entry.Master set, no transactions; NewClaim) establishes or
// renews a group's mastership at an epoch, totally ordered with the
// transactions it fences.
//
// The binary codec (codec.go) serializes entries both as the Paxos value on
// the wire and as the payload in the store's log rows; unfenced entries
// encode byte-identically with pre-fencing versions. Encode allocates once.
// DecodeString builds the entry over its input — every string of the entry
// is a substring of it — and Decode is one copy of its bytes and then
// DecodeString, so a decoded entry never aliases a caller's buffer. Counts
// are bounded by the bytes left to carry them (DESIGN.md §9).
//
// Entries are read-only once built: a decoded entry shares its strings with
// the bytes it came from, and the log, its cache and the master's pipeline
// share one entry's transactions without copying them.
package wal
