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
// A Reader walks an encoded entry — header, then each transaction's fields,
// read keys and writes — checking it as it goes and allocating nothing;
// replicas apply decided entries from their bytes through it, and Contains
// and WritesAny ask an encoded entry what Entry's methods of the same names
// ask a decoded one. DecodeString
// is a Reader's walk that builds the entry over its input — every string of
// the entry is a substring of it — and Decode is one copy of its bytes and
// then DecodeString, so a decoded entry never aliases a caller's buffer.
// Counts are bounded by the bytes left to carry them (DESIGN.md §9).
//
// The master builds its entries without decoding: OneTxn reads a submit's
// one transaction as a TxnView, which keeps its bytes, and Splice writes
// the entry of such views — the header Encode would write, then each
// transaction's bytes — in one allocation. The Reader accepts only the
// bytes Encode writes for what it reads (shortest varints; OneTxn also
// wants write keys in increasing order), so a spliced entry is the one
// Encode writes for its decoded transactions (FuzzSplice).
//
// Entries are read-only once built: a decoded entry and a TxnView share
// their strings with the bytes they came from, and Splice copies a view's
// bytes into the entry it builds.
package wal
