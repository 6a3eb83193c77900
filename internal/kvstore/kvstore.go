package kvstore

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Common errors returned by Store operations.
var (
	// ErrNotFound is returned by Read when no version of the row exists at
	// or before the requested timestamp.
	ErrNotFound = errors.New("kvstore: key not found")
	// ErrStaleWrite is returned by Write when a version with a timestamp
	// greater than or equal to the requested one already exists.
	ErrStaleWrite = errors.New("kvstore: newer version exists")
	// ErrCheckFailed is returned by CheckAndWrite when the test attribute of
	// the latest version does not match the expected value.
	ErrCheckFailed = errors.New("kvstore: check failed")
	// ErrClosed is returned by all operations after Close.
	ErrClosed = errors.New("kvstore: store closed")
)

// Value is one version's contents: a set of named attributes (columns).
// Values are copied on write and on read, so callers may retain and mutate
// the maps they pass in or receive without affecting the store.
type Value map[string]string

// Clone returns a deep copy of v. A nil Value clones to an empty, non-nil map
// so the result is always safe to assign into.
func (v Value) Clone() Value {
	out := make(Value, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}

// Equal reports whether v and o contain exactly the same attributes.
func (v Value) Equal(o Value) bool {
	if len(v) != len(o) {
		return false
	}
	for k, val := range v {
		if ov, ok := o[k]; !ok || ov != val {
			return false
		}
	}
	return true
}

// version is one timestamped version of a row as the store holds it.
type version struct {
	ts  int64
	val Packed
}

// row holds all versions of one key, sorted by ascending timestamp.
type row struct {
	mu       sync.Mutex
	versions []version
	// gone marks a row Delete removed from its shard map. A writer that
	// pinned the row pointer before the delete must not mutate the orphaned
	// object (the mutation would be invisible to readers yet still reach the
	// WAL); lockRow/lockPinned re-resolve through the shard map instead.
	// Written and read under mu.
	gone bool
}

// latest returns the newest version, or nil if none exist.
// Caller must hold row.mu.
func (r *row) latest() *version {
	if len(r.versions) == 0 {
		return nil
	}
	return &r.versions[len(r.versions)-1]
}

// at returns the newest version with timestamp <= ts, or nil; a negative ts
// (Latest) means the newest version. Caller must hold row.mu.
func (r *row) at(ts int64) *version {
	if ts < 0 {
		return r.latest()
	}
	// Binary search for the first version with timestamp > ts.
	i := sort.Search(len(r.versions), func(i int) bool {
		return r.versions[i].ts > ts
	})
	if i == 0 {
		return nil
	}
	return &r.versions[i-1]
}

const numShards = 32

type shard struct {
	mu   sync.RWMutex
	rows map[string]*row
}

// Store is a multi-version key-value store whose working image lives in
// memory. The zero value is not usable; construct with New. All methods are
// safe for concurrent use. With no engine attached (the default) the store
// is purely in-memory; AttachEngine wires a durability backend that logs
// every mutation before it is acknowledged (engine.go, DESIGN.md §14).
type Store struct {
	shards [numShards]*shard

	// idx orders the keys of every shard's rows (index.go). A key enters and
	// leaves it under its shard's lock, in the same critical section as it
	// enters and leaves the shard's map.
	idx index

	// engine is the durability backend; nil means in-memory only. Written
	// once by AttachEngine before the store is shared, read without
	// synchronization on every mutation.
	engine Engine

	mu        sync.Mutex
	closed    bool
	engineErr error // sticky engine failure: mutations fail-stop

	// scanExamined counts index candidates Rows resolved; see
	// ScanExamined.
	scanExamined atomic.Int64
}

// PosKey builds the per-position row name "<prefix><group>/<pos>" shared by
// the log, acceptor, and claim layouts (see DESIGN.md §4). It runs on every
// commit and apply, so it avoids fmt.Sprintf: the integer renders through
// strconv.AppendInt into a stack buffer and the result is one allocation.
// The buffer covers every realistic group name; longer ones spill to the
// heap but stay correct.
func PosKey(prefix, group string, pos int64) string {
	var buf [64]byte
	b := append(buf[:0], prefix...)
	b = append(b, group...)
	b = append(b, '/')
	b = strconv.AppendInt(b, pos, 10)
	return string(b)
}

// New returns an empty Store.
func New() *Store {
	s := &Store{idx: index{root: &node{}}}
	for i := range s.shards {
		s.shards[i] = &shard{rows: make(map[string]*row)}
	}
	return s
}

func shardFor(key string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(key))
	return h.Sum32() % numShards
}

// getRow returns the row for key, creating it when create is true.
func (s *Store) getRow(key string, create bool) *row {
	sh := s.shards[shardFor(key)]
	sh.mu.RLock()
	r := sh.rows[key]
	sh.mu.RUnlock()
	if r != nil || !create {
		return r
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if r = sh.rows[key]; r == nil {
		r = &row{}
		sh.rows[key] = r
		s.idx.insert(key)
	}
	return r
}

// lockRow returns key's row with its lock held, creating the row when
// absent and retrying when a concurrent Delete marked the locked row gone
// (the recreated row starts empty, exactly as the deleted one ended).
// Every write-family operation goes through this so no mutation ever lands
// on an orphaned row object.
func (s *Store) lockRow(key string) *row {
	for {
		r := s.getRow(key, true)
		r.mu.Lock()
		if !r.gone {
			return r
		}
		r.mu.Unlock()
	}
}

// lockPinned locks a row pinned earlier (ApplyBatch pins all rows of a
// batch with one shard-lock round per shard), re-resolving it
// through the shard map when a concurrent Delete scavenged it between the
// pin and the lock. key may be a view of a write's KeyBytes, so the row it
// adds in that race gets a copy.
func (s *Store) lockPinned(r *row, key string) *row {
	r.mu.Lock()
	for r.gone {
		r.mu.Unlock()
		r = s.getRow(strings.Clone(key), true)
		r.mu.Lock()
	}
	return r
}

// lockLive returns key's row with its lock held, or nil when the key has no
// row: lockRow for readers that found the key in the ordered index, which
// must not create it and must get past a row a concurrent Delete orphaned.
func (s *Store) lockLive(key string) *row {
	for {
		r := s.getRow(key, false)
		if r == nil {
			return nil
		}
		r.mu.Lock()
		if !r.gone {
			return r
		}
		r.mu.Unlock()
	}
}

func (s *Store) isClosed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// mutGate is the entry check for every mutating operation: the store must be
// open and the durability engine (when attached) must not have fail-stopped.
// Reads deliberately keep working after an engine failure — the in-memory
// image is intact and peers may still catch up from it — but no new mutation
// may acknowledge once durability is gone.
func (s *Store) mutGate() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.engineErr != nil {
		return &EngineError{Err: s.engineErr}
	}
	return nil
}

// Read returns the most recent version of key with a timestamp less than or
// equal to ts. Pass Latest (or any negative ts) to read the most recent
// version regardless of timestamp. The returned Value is unpacked for the
// caller, who owns it.
func (s *Store) Read(key string, ts int64) (Value, int64, error) {
	p, vts, err := s.ReadPacked(key, ts)
	if err != nil {
		return nil, 0, err
	}
	return p.Unpack(), vts, nil
}

// ReadPacked is Read without the unpacking: it returns the version's stored
// contents, which are immutable and therefore shared, not copied. Callers
// that want one attribute (Packed.Get) never pay for a map.
func (s *Store) ReadPacked(key string, ts int64) (Packed, int64, error) {
	if s.isClosed() {
		return Packed{}, 0, ErrClosed
	}
	r := s.getRow(key, false)
	if r == nil {
		return Packed{}, 0, ErrNotFound
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	v := r.at(ts)
	if v == nil {
		return Packed{}, 0, ErrNotFound
	}
	return v.val, v.ts, nil
}

// Latest may be passed as the timestamp to Read to fetch the most recent
// version of a row.
const Latest int64 = -1

// MultiResult is one key's outcome in a ReadMulti call.
type MultiResult struct {
	// Value is the version's stored contents (immutable, shared with the
	// store); zero when !Found.
	Value Packed
	// TS is the found version's timestamp.
	TS int64
	// Found reports whether a version existed at or before the requested
	// timestamp.
	Found bool
}

// ReadMulti reads many keys at one timestamp with one shard-lock acquisition
// per touched shard (instead of the per-key shard lookup a loop of Read
// calls pays) and returns one result per key, in key order. Pass Latest (or
// any negative ts) for most-recent-version reads. Per-key semantics match
// Read exactly; a missing key is reported as !Found rather than an error.
// It pins its rows by ApplyBatch's walk (pinRows) and allocates only the
// result — and, for more than 64 keys, one scratch slice.
//
// Like Read, cross-row atomicity is not provided by the store: the
// transaction tier serves multi-key reads at an applied-watermark position,
// which only advances after a batch fully lands (see internal/replog), so a
// ReadMulti at position <= watermark observes one consistent snapshot.
func (s *Store) ReadMulti(keys []string, ts int64) ([]MultiResult, error) {
	if s.isClosed() {
		return nil, ErrClosed
	}
	out := make([]MultiResult, len(keys))
	var pinBuf [64]pin
	pins := pinBuf[:0]
	for _, k := range keys {
		pins = append(pins, pin{key: k, shard: shardFor(k)})
	}
	s.readPins(pins, ts, func(i int, v *version) { out[i] = MultiResult{Value: v.val, TS: v.ts, Found: true} })
	return out, nil
}

// ReadAttr reads attribute attr of many rows at one timestamp, as ReadMulti
// reads their versions, into vals and founds, parallel to names: a row with a
// version at or before ts sets vals[i] to the attribute's value (sharing the
// store's memory) and founds[i] to true, and one with none leaves both as
// they are. A name is bytes the store reads only during the call, so a caller
// builds its rows' names in one reused buffer (the transaction service's
// positioned read does). Up to 64 names, ReadAttr allocates nothing.
func (s *Store) ReadAttr(names [][]byte, ts int64, attr string, vals []string, founds []bool) error {
	if s.isClosed() {
		return ErrClosed
	}
	var pinBuf [64]pin
	pins := pinBuf[:0]
	for _, name := range names {
		k := unsafe.String(unsafe.SliceData(name), len(name))
		pins = append(pins, pin{key: k, view: true, shard: shardFor(k)})
	}
	s.readPins(pins, ts, func(i int, v *version) { vals[i], founds[i] = v.val.Get(attr), true })
	return nil
}

// readPins pins the rows of pins by ApplyBatch's walk (pinRows), adding none,
// and calls got with each pin's index and its row's version at ts, under the
// row's lock, for every row that has one.
func (s *Store) readPins(pins []pin, ts int64, got func(i int, v *version)) {
	s.pinRows(pins, false)
	for i := range pins {
		r := pins[i].r
		if r == nil {
			continue
		}
		r.mu.Lock()
		if v := r.at(ts); v != nil {
			got(i, v)
		}
		r.mu.Unlock()
	}
}

// logUnlock finishes a single-row mutation: still under r.mu it appends m to
// the engine (when one is attached), then releases the row and waits for the
// record to be durable. Appending under the row lock is what pins the WAL
// order of a row's mutations to their apply order (engine.go).
func (s *Store) logUnlock(r *row, m Mutation) error {
	if s.engine == nil {
		r.mu.Unlock()
		return nil
	}
	seq, err := s.appendMut(m)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return s.syncMut(seq)
}

// Write creates a new version of key with the given timestamp. If a version
// with a timestamp >= ts already exists, ErrStaleWrite is returned, matching
// the paper's write(key, value, timestamp) contract. Pass a negative ts to
// have the store assign a timestamp one greater than the current maximum.
// Writing the same timestamp twice is rejected (timestamps are log positions
// and each position is written once).
func (s *Store) Write(key string, value Contents, ts int64) (int64, error) {
	if err := s.mutGate(); err != nil {
		return 0, err
	}
	stored := packOf(value)
	r := s.lockRow(key)
	last := r.latest()
	if ts < 0 {
		ts = 0
		if last != nil {
			ts = last.ts + 1
		}
	} else if last != nil && last.ts >= ts {
		have := last.ts
		r.mu.Unlock()
		return 0, fmt.Errorf("%w: have ts=%d, write ts=%d key=%q",
			ErrStaleWrite, have, ts, key)
	}
	r.versions = append(r.versions, version{ts: ts, val: stored})
	if err := s.logUnlock(r, Mutation{Op: OpWrite, Key: key, TS: ts, Value: stored}); err != nil {
		return 0, err
	}
	return ts, nil
}

// checkIdempotent reports whether applying (ts, value) idempotently would
// conflict: a version already exists at ts with a different value.
// Caller must hold r.mu.
func (r *row) checkIdempotent(ts int64, value Packed) error {
	last := r.latest()
	if last == nil || last.ts < ts {
		return nil // appends past the tail never conflict
	}
	if v := r.at(ts); v != nil && v.ts == ts && v.val != value {
		return fmt.Errorf("%w: conflicting rewrite of ts=%d", ErrStaleWrite, ts)
	}
	return nil
}

// applyIdempotent inserts (ts, value) keeping versions ordered by timestamp.
// Re-writing an existing timestamp with an identical value is a no-op; a
// different value is a conflict. The changed result reports whether the row
// actually mutated — duplicate deliveries return false, which the
// engine-logging callers use to keep replayed apply messages out of the
// write-ahead log. Caller must hold r.mu.
func (r *row) applyIdempotent(ts int64, value Packed) (changed bool, err error) {
	last := r.latest()
	if last == nil || last.ts < ts {
		r.versions = append(r.versions, version{ts: ts, val: value})
		return true, nil
	}
	if v := r.at(ts); v != nil && v.ts == ts {
		if v.val == value {
			return false, nil
		}
		return false, fmt.Errorf("%w: conflicting rewrite of ts=%d", ErrStaleWrite, ts)
	}
	// A newer version exists but this exact timestamp was never written:
	// insert in order to keep historical reads correct.
	i := sort.Search(len(r.versions), func(i int) bool {
		return r.versions[i].ts > ts
	})
	r.versions = append(r.versions, version{})
	copy(r.versions[i+1:], r.versions[i:])
	r.versions[i] = version{ts: ts, val: value}
	return true, nil
}

// replace makes (ts, value) the row's only version, reporting whether the
// row changed. Caller must hold r.mu.
func (r *row) replace(ts int64, value Packed) (changed bool) {
	v := version{ts: ts, val: value}
	if len(r.versions) != 1 {
		r.versions = []version{v} // drops the history's backing array too
		return true
	}
	if r.versions[0] == v {
		return false
	}
	r.versions[0] = v
	return true
}

// WriteIdempotent is Write except that re-writing an existing timestamp with
// an identical value succeeds silently. The WAL apply path uses this so that
// replayed log entries (after recovery or duplicated apply messages) are
// harmless.
func (s *Store) WriteIdempotent(key string, value Contents, ts int64) error {
	if err := s.mutGate(); err != nil {
		return err
	}
	if ts < 0 {
		return fmt.Errorf("kvstore: WriteIdempotent requires explicit timestamp")
	}
	stored := packOf(value)
	r := s.lockRow(key)
	changed, err := r.applyIdempotent(ts, stored)
	if err != nil {
		r.mu.Unlock()
		return fmt.Errorf("%w key=%q", err, key)
	}
	// Duplicate deliveries (changed == false) left the image untouched, so
	// they are already represented in the log and are not re-logged.
	if !changed {
		r.mu.Unlock()
		return nil
	}
	return s.logUnlock(r, Mutation{Op: OpWrite, Key: key, TS: ts, Value: stored})
}

// BatchWrite is one explicitly-timestamped write in an ApplyBatch call:
// idempotent (WriteIdempotent semantics) by default, or — with Replace set —
// a replace-latest write that leaves (TS, Value) as the row's only version.
// Replace suits a row that is only ever read at Latest (the replicated
// log's meta row): it keeps no history, in memory or through recovery.
//
// A write names its row by Key or, when Key is empty, by KeyBytes: bytes the
// caller may reuse once ApplyBatch returns, which the store copies into a
// string only for a row the write adds. A caller that builds row names per
// write (the replicated log's drain) builds them in one reused buffer, and a
// write to a row that exists allocates no name.
type BatchWrite struct {
	Key      string
	KeyBytes []byte
	Value    Contents
	TS       int64
	Replace  bool
}

// key returns the write's row name: Key, or a view of KeyBytes that lives
// only as long as the caller leaves them unchanged.
func (w *BatchWrite) key() (key string, view bool) {
	if w.Key != "" || len(w.KeyBytes) == 0 {
		return w.Key, false
	}
	return unsafe.String(unsafe.SliceData(w.KeyBytes), len(w.KeyBytes)), true
}

// ApplyBatch applies a batch of explicitly-timestamped writes with one
// shard-lock acquisition per touched shard, instead of the per-key shard
// lookup that a loop of Write calls pays. The replicated-log apply path
// (internal/replog) uses it to land all writes of a batch of contiguous
// decided log entries, and the meta row recording them, in one pass.
//
// Every idempotent write is validated before any row is created or mutated,
// so a batch that conflicts with the existing state changes nothing: no
// version, and no empty row for a key it would have added. Under concurrent
// non-identical writers a batch may still fail partway (applied elements are
// idempotent, so retrying the same batch is harmless); cross-row visibility
// is never atomic — readers may observe a prefix of the batch. The log layer
// gates visibility through its applied watermark instead, which only
// advances after ApplyBatch returns (see internal/replog and DESIGN.md §4).
//
// Elements are applied, and logged to the engine, in slice order, and one
// Sync covers them all: when a later element of a batch is durable, so is
// every earlier one. ApplyBatch allocates only what the store keeps — the
// rows it adds, a KeyBytes name of a row it adds, their versions, and the
// packing of a Value — and, for a batch of more than 64 writes, one scratch
// slice.
func (s *Store) ApplyBatch(writes []BatchWrite) error {
	if err := s.mutGate(); err != nil {
		return err
	}
	var pinBuf [64]pin
	pins := pinBuf[:0]
	for i := range writes {
		key, view := writes[i].key()
		if writes[i].TS < 0 {
			return fmt.Errorf("kvstore: ApplyBatch requires explicit timestamps (key %q)", key)
		}
		pins = append(pins, pin{key: key, view: view, shard: shardFor(key), val: packOf(writes[i].Value)})
	}
	s.pinRows(pins, false)
	// Validate everything against the rows that exist before anything is
	// created or mutated. A write whose row does not exist cannot conflict.
	for i := range writes {
		if writes[i].Replace || pins[i].r == nil {
			continue
		}
		r := pins[i].r
		if r.mu.Lock(); r.gone {
			r.mu.Unlock()
			if r = s.lockLive(pins[i].key); r == nil {
				pins[i].r = nil
				continue
			}
		}
		pins[i].r = r
		err := r.checkIdempotent(writes[i].TS, pins[i].val)
		r.mu.Unlock()
		if err != nil {
			return fmt.Errorf("%w key=%q", err, pins[i].key)
		}
	}
	s.pinRows(pins, true)
	// Each element's WAL record is appended under its row's lock (Append is
	// queue-only, no I/O) so the log orders it against racing mutations of
	// the same row, and one Sync at the end covers the whole batch — the
	// group-commit fsync still absorbs every write the batch carried.
	// Replayed batches (nothing changed) are already in the log and skip the
	// engine; sequence numbers are monotone, so the last append's seq covers
	// all of them.
	var seq uint64
	logged := false
	for i := range writes {
		r := s.lockPinned(pins[i].r, pins[i].key)
		m := Mutation{Op: OpWrite, Key: pins[i].key, TS: writes[i].TS, Value: pins[i].val}
		var changed bool
		if writes[i].Replace {
			m.Op = OpReplace
			changed = r.replace(m.TS, m.Value)
		} else {
			var err error
			if changed, err = r.applyIdempotent(m.TS, m.Value); err != nil {
				r.mu.Unlock()
				return fmt.Errorf("%w key=%q", err, pins[i].key)
			}
		}
		if changed && s.engine != nil {
			sq, aerr := s.appendMut(m)
			if aerr != nil {
				r.mu.Unlock()
				return aerr
			}
			seq, logged = sq, true
		}
		r.mu.Unlock()
	}
	if logged {
		if err := s.syncMut(seq); err != nil {
			return err
		}
	}
	return nil
}

// pin is one key of an ApplyBatch or a ReadMulti: its row once resolved,
// the shard the key hashes to, and — for a write — its contents, packed once.
// view marks a key over a write's KeyBytes, copied when its row is added.
type pin struct {
	key   string
	r     *row
	val   Packed
	shard uint32
	view  bool
}

// The shards a batch touches are a bit set in one uint32.
var _ [32 - numShards]struct{}

// pinRows resolves the row of every key whose pin has none yet, with one
// round of shard locks over the shards that hold such a key: read locks, or,
// with create, write locks and a new row for each key the shard lacks.
func (s *Store) pinRows(pins []pin, create bool) {
	var shards uint32
	for i := range pins {
		if pins[i].r == nil {
			shards |= 1 << pins[i].shard
		}
	}
	for ; shards != 0; shards &= shards - 1 {
		si := uint32(bits.TrailingZeros32(shards))
		sh := s.shards[si]
		if create {
			sh.mu.Lock()
		} else {
			sh.mu.RLock()
		}
		for i := range pins {
			if pins[i].r != nil || pins[i].shard != si {
				continue
			}
			r := sh.rows[pins[i].key]
			if r == nil && create {
				if pins[i].view {
					pins[i].key, pins[i].view = strings.Clone(pins[i].key), false
				}
				r = &row{}
				sh.rows[pins[i].key] = r
				s.idx.insert(pins[i].key)
			}
			pins[i].r = r
		}
		if create {
			sh.mu.Unlock()
		} else {
			sh.mu.RUnlock()
		}
	}
}

// CheckAndWrite atomically compares attribute testAttr of the latest version
// of key against testValue and, when equal, writes value as a new latest
// version (with a store-assigned timestamp). If the row has no versions, the
// test passes only when testValue equals the empty string, mirroring a
// missing attribute. Returns ErrCheckFailed when the test fails.
//
// This is the operation Algorithm 1 of the paper relies on to make Paxos
// acceptor state transitions atomic.
func (s *Store) CheckAndWrite(key, testAttr, testValue string, value Contents) error {
	if err := s.mutGate(); err != nil {
		return err
	}
	stored := packOf(value)
	r := s.lockRow(key)
	cur := ""
	ts := int64(0)
	if last := r.latest(); last != nil {
		cur = last.val.Get(testAttr)
		ts = last.ts + 1
	}
	if cur != testValue {
		r.mu.Unlock()
		return fmt.Errorf("%w: attr %q is %q, want %q", ErrCheckFailed, testAttr, cur, testValue)
	}
	r.versions = append(r.versions, version{ts: ts, val: stored})
	return s.logUnlock(r, Mutation{Op: OpWrite, Key: key, TS: ts, Value: stored})
}

// Versions returns the number of stored versions for key.
func (s *Store) Versions(key string) int {
	r := s.getRow(key, false)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.versions)
}

// GC discards all versions of key strictly older than the newest version
// whose timestamp is <= keepFrom. The version visible at keepFrom (and all
// newer) survive, so reads at timestamps >= keepFrom are unaffected.
// It returns the number of versions discarded.
func (s *Store) GC(key string, keepFrom int64) int {
	r := s.getRow(key, false)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	if r.gone {
		r.mu.Unlock()
		return 0
	}
	dropped := r.gc(keepFrom)
	// A lost GC record only costs disk space after a crash (the discarded
	// versions reappear), never correctness, so engine failures surface via
	// the sticky fail-stop flag rather than a return value here. Appended
	// under the row lock so replay scavenges in apply order.
	if dropped == 0 {
		r.mu.Unlock()
		return 0
	}
	_ = s.logUnlock(r, Mutation{Op: OpGC, Key: key, TS: keepFrom})
	return dropped
}

// gcRow is GC's in-memory half, used by the recovery replay path
// (ApplyMutation), which must not re-log the mutation.
func (s *Store) gcRow(key string, keepFrom int64) int {
	r := s.getRow(key, false)
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gc(keepFrom)
}

// gc discards versions strictly older than the newest one at or below
// keepFrom. Caller must hold r.mu.
func (r *row) gc(keepFrom int64) int {
	i := sort.Search(len(r.versions), func(i int) bool {
		return r.versions[i].ts > keepFrom
	})
	// Keep the version at keepFrom itself (index i-1) so reads at keepFrom
	// still resolve.
	cut := i - 1
	if cut <= 0 {
		return 0
	}
	dropped := cut
	r.versions = append([]version(nil), r.versions[cut:]...)
	return dropped
}

// Delete removes a row and all its versions. Used by log compaction to
// scavenge decided Paxos instance state and old log entries. Like GC, a
// lost delete record costs space after a crash, not correctness, so engine
// failures are surfaced by the sticky fail-stop flag, not here.
//
// The delete is applied and logged while holding both the shard lock and
// the row lock: the gone mark makes a racing writer that pinned the row
// re-resolve (lockRow) instead of mutating the orphaned object, and the
// under-lock Append pins the WAL order of the delete against that row's
// other mutations — without it, a Delete racing a Write could be logged in
// the opposite order of application, and recovery replay would resurrect
// the deleted row or drop the acknowledged write. The key leaves the ordered
// index in the same critical section: shard lock, row lock, then the index's
// (index.go has what that order asks of a scan).
func (s *Store) Delete(key string) {
	sh := s.shards[shardFor(key)]
	sh.mu.Lock()
	r := sh.rows[key]
	if r == nil {
		sh.mu.Unlock()
		return
	}
	r.mu.Lock()
	r.gone = true
	delete(sh.rows, key)
	s.idx.delete(key)
	var seq uint64
	logged := false
	if s.engine != nil {
		if sq, err := s.appendMut(Mutation{Op: OpDelete, Key: key}); err == nil {
			seq, logged = sq, true
		}
	}
	r.mu.Unlock()
	sh.mu.Unlock()
	if logged {
		_ = s.syncMut(seq)
	}
}

// Len returns the number of keys with at least one version.
func (s *Store) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += len(sh.rows)
		sh.mu.RUnlock()
	}
	return n
}

// Close marks the store closed and closes the attached engine (flushing and
// syncing everything logged); subsequent operations return ErrClosed. Engine
// Close is idempotent, so closing a store whose engine was already closed by
// its opener is harmless.
func (s *Store) Close() {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.closed = true
	s.mu.Unlock()
	if !alreadyClosed && s.engine != nil {
		_ = s.engine.Close()
	}
}
