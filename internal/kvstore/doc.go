// Package kvstore implements the multi-version key-value store that forms
// the foundation tier of each datacenter (paper §2.2).
//
// The transaction tier depends on exactly three atomic operations, which
// this package provides with per-row atomicity:
//
//   - Read(key, ts): most recent version with timestamp <= ts
//   - Write(key, value, ts): create a new version; error if a newer exists
//   - CheckAndWrite(key, testAttr, testValue, value): conditional write on
//     an attribute of the latest version
//
// Timestamps are logical; the transaction tier uses write-ahead-log
// positions as timestamps (paper §3.2). The paper's prototype used HBase;
// this store implements the same abstraction contract with 32-way sharding
// and per-row version arrays (see DESIGN.md §5). A version's contents are a
// set of named attributes — Value, a map, at the API boundary; Packed, one
// immutable byte string identical to the disk engine's record encoding, in
// the store, where a version costs its bytes and little else.
//
// The working image lives in memory; durability is a pluggable backend
// behind the Engine seam (DESIGN.md §14): with no engine attached (the
// default) the store is purely in-memory — the simulator's and most tests'
// backend — and internal/kvstore/disk supplies a write-ahead-logged engine
// whose Open recovers the store after a crash. Every mutating operation
// applies to the image first, then logs to the engine and waits for
// durability per its sync policy before acknowledging.
//
// Beyond the paper's contract the store provides the maintenance surface a
// running system needs: ApplyBatch (explicitly-timestamped write batches for
// the replicated-log apply path, idempotent or replace-latest per element —
// one shard-lock acquisition per touched shard, and one engine sync per
// batch so the whole batch shares a group commit), ReadMulti (batched
// multi-key reads at one timestamp), GC, Delete, ordered prefix scans
// (ScanPrefix), and persistence. There is one serialized form of a row
// mutation, the record (AppendRecord/ReadRecord, record.go): the disk
// engine's WAL is a sequence of records, a snapshot of the store (Save/Load,
// persist.go — also the disk engine's snapshot file) is a stream of them
// closed by a trailer, and a replica hands a peer its state as pages of them
// (internal/core). The storetest subpackage holds the conformance suite every
// backend must pass.
package kvstore
