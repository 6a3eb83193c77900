package replog

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/paxos"
	"paxoscp/internal/wal"
)

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("replog: log closed")

// cacheLimit bounds the decoded-entry cache per group. Entries this far
// behind the newest cached position are evicted; compaction evicts eagerly.
const cacheLimit = 4096

// Log is one group's replicated log at one datacenter. All methods are safe
// for concurrent use. Construct with Open.
type Log struct {
	group string
	store *kvstore.Store

	// compactMu serializes compaction passes.
	compactMu sync.Mutex

	// ioMu orders bulk store mutations against watermark movement: the
	// apply goroutine's batch+meta write and snapshot installation.
	ioMu sync.Mutex
	// batch is drain's reusable write buffer (guarded by ioMu).
	batch []kvstore.BatchWrite
	// meta is the meta row's contents as last written (guarded by ioMu).
	// Every writer of the row holds ioMu, so each composes the next contents
	// from this copy instead of reading the row back.
	meta metaRow

	// mu guards the fields below. Critical sections are short; the apply
	// goroutine does its store I/O outside mu.
	mu         sync.Mutex
	applied    int64               // contiguously applied watermark
	decidedMax int64               // highest position known decided locally
	compacted  int64               // compaction horizon
	pending    map[int64]queued    // decided but not yet applied (pos > applied)
	unlogged   []int64             // pending positions queued since the last drain: no drain has looked at their rows yet
	cache      map[int64]wal.Entry // decoded entries (read-only, shared)
	cacheTop   int64               // highest cached position (eviction anchor)
	pins       map[int64]time.Time // read-pin position -> expiry (PinReads)
	pinsKept   int                 // len(pins) after the last walk dropped the expired ones
	pinVisits  int                 // pins those walks have looked at, for the cost test
	applyErr   error               // sticky apply failure; surfaced by waiters
	waitCh     chan struct{}       // closed+replaced whenever a drain's batch lands
	notifyCh   chan struct{}       // wakes the apply goroutine (capacity 1)
	stopCh     chan struct{}
	stopOnce   sync.Once

	// Apply scheduling. A standalone Log (Open) runs a dedicated apply
	// goroutine; a Set-owned Log shares the Set's applyPool, with sched
	// marking whether the log is already queued on its shard's worker.
	pool  *applyPool
	shard uint32
	sched atomic.Bool

	// Epoch fencing state (DESIGN.md §11): the prevailing master epoch at
	// the applied watermark, maintained by drain as claim entries apply in
	// log order, durable in the meta row. renewedAt is the local wall-clock
	// time the lease was last renewed — by a claim entry for the prevailing
	// epoch or by any transaction entry stamped with it — and is volatile:
	// a restart resets it to the Open time, which only delays takeover.
	epoch     EpochState
	renewedAt time.Time
	voided    map[int64]bool // positions fenced at apply (entries that committed nothing)

	// Live-migration state (DESIGN.md §15), maintained by drain exactly like
	// the epoch state: mig is the derived view of every applied handoff
	// entry (durable in the meta row), and movedTxns records transactions
	// voided by the migration rules M1/M2 — pos -> txn ID -> destination
	// group ("" = inbound-unopened here) — so the pipeline can answer them
	// with the retryable moved/migrating verdicts instead of commits.
	mig       migState
	movedTxns map[int64]map[string]string
}

// queued is one decided entry in the pending set: the decoded entry the drain
// applies, its encoded bytes, a ballot they were chosen at (AppendChosen), and
// whether the position's row is durable in its decided form — written by a
// drain or, before a restart, by an earlier process.
type queued struct {
	entry    wal.Entry
	bytes    string
	chosenAt int64
	logged   bool
}

// EpochState is a group's prevailing master epoch: the highest epoch any
// applied claim entry has established, the datacenter holding it, and the
// log position of the establishing claim. The zero value means no master has
// ever claimed the group.
type EpochState struct {
	Epoch  int64
	Master string
	Pos    int64
}

// metaRow is the contents of a group's meta row (keys.go): the applied
// watermark, the compaction horizon, the prevailing epoch state and the
// encoded handoff records. The row is only ever read at Latest, by Open, so
// it is written replace-latest and holds one version.
type metaRow struct {
	last, compacted int64
	epoch           EpochState
	migrations      string // encodeMigrations form; "" = none
}

// pack encodes m as the meta row's contents.
func (m metaRow) pack() kvstore.Packed {
	itoa := func(n int64) string { return strconv.FormatInt(n, 10) }
	return kvstore.PackAttrs(
		"compacted", itoa(m.compacted),
		"epoch", itoa(m.epoch.Epoch),
		"epochpos", itoa(m.epoch.Pos),
		"last", itoa(m.last),
		"master", m.epoch.Master,
		"migrations", m.migrations)
}

// write returns the batch element that makes m the group's meta row.
func (m metaRow) write(group string) kvstore.BatchWrite {
	return kvstore.BatchWrite{Key: MetaKey(group), TS: m.last, Replace: true, Value: m.pack()}
}

// readMeta decodes a meta row; absent attributes (rows written before the
// epoch or migration fields existed) read as zero. A number that does not
// parse reads as zero and is reported: Open, reading back what this replica
// wrote, carries on; a snapshot install, reading a peer's bytes, refuses.
func readMeta(v kvstore.Packed) (m metaRow, err error) {
	atoi := func(attr string) int64 {
		s := v.Get(attr)
		if s == "" {
			return 0
		}
		n, perr := strconv.ParseInt(s, 10, 64)
		if perr != nil && err == nil {
			err = fmt.Errorf("replog: meta row: %s=%q is not a number", attr, s)
		}
		return n
	}
	m = metaRow{
		last: atoi("last"), compacted: atoi("compacted"),
		epoch:      EpochState{Epoch: atoi("epoch"), Master: v.Get("master"), Pos: atoi("epochpos")},
		migrations: v.Get("migrations"),
	}
	return m, err
}

// scanLogRows calls fn with the position and packed value of every
// per-position row the store holds for group, decided or not. It stops early,
// without error, if the store closes mid-walk.
func scanLogRows(store *kvstore.Store, group string, fn func(pos int64, row kvstore.Packed)) {
	prefix := LogPrefix(group)
	_ = store.WalkPrefix(prefix, kvstore.Latest, func(row kvstore.ScanRow) {
		if pos, err := strconv.ParseInt(row.Key[len(prefix):], 10, 64); err == nil {
			fn(pos, row.Val)
		}
	})
}

// Open returns the Log for (store, group), rebuilding its in-memory state
// from the store's rows: the watermark and compaction horizon from the meta
// row, and every row marked decided above the watermark — an entry logged
// above a gap, or one whose batch a crash cut before its meta row — into the
// pending set, already logged, which is then drained. Unmarked rows above the
// watermark are the acceptor's live state and are left alone.
func Open(store *kvstore.Store, group string) *Log {
	return open(store, group, nil)
}

// open builds the Log. With a nil pool the log runs its own apply goroutine;
// otherwise apply work is scheduled on the pool's shard worker for the group.
func open(store *kvstore.Store, group string, pool *applyPool) *Log {
	l := &Log{
		group:     group,
		store:     store,
		pool:      pool,
		shard:     GroupShard(group),
		pending:   make(map[int64]queued),
		cache:     make(map[int64]wal.Entry),
		pins:      make(map[int64]time.Time),
		voided:    make(map[int64]bool),
		movedTxns: make(map[int64]map[string]string),
		waitCh:    make(chan struct{}),
		notifyCh:  make(chan struct{}, 1),
		stopCh:    make(chan struct{}),
		renewedAt: time.Now(),
	}
	if v, _, err := store.ReadPacked(MetaKey(group), kvstore.Latest); err == nil {
		// Errors dropped: a field this replica cannot read back restarts from
		// zero, as it always has; catch-up rebuilds what the log still holds.
		l.meta, _ = readMeta(v)
		l.applied, l.compacted, l.epoch = l.meta.last, l.meta.compacted, l.meta.epoch
		records, _ := decodeMigrations(l.meta.migrations)
		l.mig.rebuild(group, records)
	}
	l.decidedMax = l.applied
	// Recover decided entries above the watermark into the pending set.
	scanLogRows(store, group, func(pos int64, row kvstore.Packed) {
		if pos <= l.applied || !paxos.RowDecided(row) {
			return
		}
		if entry, err := wal.Decode([]byte(paxos.RowEntry(row))); err == nil {
			l.pending[pos] = queued{entry: entry, bytes: paxos.RowEntry(row), logged: true}
			if pos > l.decidedMax {
				l.decidedMax = pos
			}
		}
	})
	// Drain recovered entries synchronously so a restarted replica surfaces
	// a fully advanced watermark before it serves its first request.
	if len(l.pending) > 0 {
		l.drain()
	}
	if l.pool == nil {
		go l.run()
	}
	return l
}

// Group returns the transaction group this log belongs to.
func (l *Log) Group() string { return l.group }

// Close stops the apply goroutine and fails pending and future waiters with
// ErrClosed. Durable state is untouched; Open rebuilds from it.
func (l *Log) Close() {
	l.stopOnce.Do(func() { close(l.stopCh) })
}

// Applied returns the contiguously-applied watermark: every log entry at or
// below it has had its writes applied to the data rows. 0 means empty.
func (l *Log) Applied() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.applied
}

// DecidedMax returns the highest position known decided locally: applied,
// pending behind a gap, or learned through an apply message — 0 means none.
// The master's pipelined submit path assigns fresh positions above it so a
// new entry is never placed below a decided one it has not absorbed
// (DESIGN.md §8, invariant W1).
func (l *Log) DecidedMax() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.decidedMax
}

// CompactedTo returns the compaction horizon: log entries strictly below it
// have been scavenged locally. 0 means never compacted.
func (l *Log) CompactedTo() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.compacted
}

// Epoch returns the prevailing master epoch state at the applied watermark:
// the highest epoch established by an applied claim entry. The zero value
// means the group has never had a fenced master.
func (l *Log) Epoch() EpochState {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch
}

// LeaseState returns the prevailing epoch state together with the local
// wall-clock time the holder's lease was last observed renewed (a claim or
// renewal entry applying, or the master's own epoch-stamped traffic). The
// lease is a liveness mechanism only — safety comes from fencing — so the
// timestamp is deliberately local and volatile: a restarted replica counts
// from its Open time, which can only delay a takeover, never unfence one.
func (l *Log) LeaseState() (EpochState, time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.epoch, l.renewedAt
}

// Voided reports whether the entry at pos was fenced when it applied: it was
// stamped with a superseded epoch (or was a losing claim) and committed
// nothing (DESIGN.md §11, invariant F2). Only meaningful for positions at or
// below the applied watermark; the record is bounded and positions far
// behind the watermark are eventually forgotten.
func (l *Log) Voided(pos int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.voided[pos]
}

// Append is AppendChosen for a caller that learned the decision without a
// ballot it was chosen at (a catch-up fetch, a replay): no stored vote can be
// shown to stand, so the drain writes the row in its decided form.
func (l *Log) Append(pos int64, entryBytes []byte) (int64, error) {
	return l.AppendChosen(pos, paxos.DecidedBallot, entryBytes)
}

// AppendChosen queues the decided entry for pos, in memory: the bytes are
// validated and handed to the apply goroutine, whose next batch makes the
// position's row the durable log entry together with whatever the entry lets
// it apply (drain). chosenAt is a ballot a majority voted for the bytes at —
// what an apply message carries (paxos.AcceptOutcome.ChosenAt); it decides
// whether a vote this replica already holds can stand as the entry
// (paxos.VoteStands). Nothing is durable when AppendChosen returns;
// WaitApplied, or WaitLogged for an entry above a gap, is the durability
// point. Bytes that will not be queued — a duplicate, a position already
// below the watermark — are compared, not decoded.
//
// A decided position holds one value (invariant R1), enforced here against
// whichever copy of pos the log has — the queued one, or the stored row once
// pos is applied: the same bytes again are a no-op (duplicated apply messages
// and replays are harmless), different bytes are refused with an error
// wrapping kvstore.ErrStaleWrite, and the first value still applies.
//
// It returns the contiguous decided horizon — the highest position h such
// that every position in (Applied(), h] is decided locally; the watermark
// will reach h without further appends. When pos is above a gap, h < pos and
// the caller must catch the gap up before waiting on pos.
func (l *Log) AppendChosen(pos, chosenAt int64, entryBytes []byte) (int64, error) {
	if pos < 1 {
		return 0, fmt.Errorf("replog: append at invalid position %d", pos)
	}
	// Only a position that is new gets decoded, and outside l.mu: the master
	// appends every position twice by design (its local apply leg, then
	// pipeline.replicate), and a duplicate is settled by comparing bytes.
	h, fresh, err := l.offer(pos, chosenAt, entryBytes, nil)
	if !fresh || err != nil {
		return h, err
	}
	entry, err := wal.Decode(entryBytes)
	if err != nil {
		return 0, fmt.Errorf("replog: entry %s/%d: %w", l.group, pos, err)
	}
	h, _, err = l.offer(pos, chosenAt, entryBytes, &entry)
	return h, err
}

// offer is AppendChosen's critical section. With entry nil it only looks: fresh
// reports that pos is new here and must be decoded and offered again. With
// the decoded entry it queues pos, unless another appender got there between
// the two calls — then it is the duplicate.
func (l *Log) offer(pos, chosenAt int64, entryBytes []byte, entry *wal.Entry) (h int64, fresh bool, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.applyErr; err != nil {
		return 0, false, err
	}
	have, known := l.bytesLocked(pos)
	switch {
	case known && have != string(entryBytes):
		return 0, false, fmt.Errorf("replog: entry %s/%d: %w: a different value is already decided there",
			l.group, pos, kvstore.ErrStaleWrite)
	case !known && pos > l.applied:
		if entry == nil {
			return 0, true, nil
		}
		l.pending[pos] = queued{entry: *entry, bytes: string(entryBytes), chosenAt: chosenAt}
		l.unlogged = append(l.unlogged, pos)
		l.notify()
	}
	// Otherwise there is nothing to do: a duplicate, or a position at or
	// below the watermark whose row compaction or a snapshot install dropped.
	if pos > l.decidedMax {
		l.decidedMax = pos
	}
	h = l.applied
	for {
		if _, ok := l.pending[h+1]; !ok {
			break
		}
		h++
	}
	return h, false, nil
}

// decidedRow is the one rule for what a stored row of pos means. It holds
// the position's decided entry iff it is marked decided (paxos.DecidedRow), or
// pos lies above the compaction horizon and at or below the applied
// watermark: the drain advances the watermark over a row only after writing
// it marked or finding its vote standing (paxos.VoteStands). Any other
// unmarked row is acceptor state and no entry — a vote for a position not yet
// decided here, or one a straggling accept left at or below the horizon,
// where Compact and InstallSnapshot have deleted the rows. Every reader of a
// stored row goes through here, with the horizon and watermark of one look at
// the Log.
func decidedRow(pos int64, row kvstore.Packed, compacted, applied int64) bool {
	return paxos.RowDecided(row) || (pos > compacted && pos <= applied)
}

// bytesLocked returns the encoded decided entry of pos as the log knows it:
// the queued bytes while pos is pending, the stored row's once it is applied.
// Caller holds l.mu (the store never calls back into the Log, so reading it
// here cannot deadlock, and it keeps "pending, else stored" one atomic look).
func (l *Log) bytesLocked(pos int64) (string, bool) {
	if q, ok := l.pending[pos]; ok {
		return q.bytes, true
	}
	if pos > l.applied {
		return "", false // every decided position above the watermark is pending
	}
	row, _, err := l.store.ReadPacked(paxos.StateKey(l.group, pos), kvstore.Latest)
	if err != nil || !decidedRow(pos, row, l.compacted, l.applied) {
		return "", false
	}
	return paxos.RowEntry(row), true
}

// WaitApplied blocks until the watermark reaches pos, ctx is done, or the
// log fails or closes. The caller is responsible for pos being reachable
// (decided locally or being caught up); use the horizon Append returns.
func (l *Log) WaitApplied(ctx context.Context, pos int64) error {
	return l.wait(ctx, func() bool { return l.applied >= pos })
}

// WaitLogged blocks until the row of an appended pos is durable, in its
// decided form, under the engine's sync policy — a drain's batch carrying it
// has landed, or the watermark covers pos — or ctx is done, or the log fails
// or closes. It is what the appender of an entry above a gap waits on, where
// WaitApplied would wait for the gap.
func (l *Log) WaitLogged(ctx context.Context, pos int64) error {
	return l.wait(ctx, func() bool { return l.applied >= pos || l.pending[pos].logged })
}

// wait blocks until done, evaluated under l.mu after every landed batch,
// reports true.
func (l *Log) wait(ctx context.Context, done func() bool) error {
	for {
		l.mu.Lock()
		if done() {
			l.mu.Unlock()
			return nil
		}
		if err := l.applyErr; err != nil {
			l.mu.Unlock()
			return err
		}
		ch := l.waitCh
		l.mu.Unlock()
		select {
		case <-ch:
		case <-l.stopCh:
			return ErrClosed
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Has reports whether the decided entry at pos is known locally (pending,
// cached, or in the store), without decoding it.
func (l *Log) Has(pos int64) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, inCache := l.cache[pos]; inCache {
		return true
	}
	_, ok := l.bytesLocked(pos)
	return ok
}

// Entry returns the decided entry at pos, if known locally. The returned
// entry may be shared with the cache and other callers: treat it as
// read-only (Clone before mutating). Serving from the cache avoids
// re-decoding entry bytes on catch-up, leader computation, and the master's
// promotion-conflict checks.
func (l *Log) Entry(pos int64) (wal.Entry, bool) {
	l.mu.Lock()
	if q, ok := l.pending[pos]; ok {
		l.mu.Unlock()
		return q.entry, true
	}
	if e, ok := l.cache[pos]; ok {
		l.mu.Unlock()
		return e, true
	}
	raw, ok := l.bytesLocked(pos)
	l.mu.Unlock()
	if !ok {
		return wal.Entry{}, false
	}
	entry, err := wal.Decode([]byte(raw))
	if err != nil {
		return wal.Entry{}, false
	}
	l.mu.Lock()
	l.cacheLocked(pos, entry)
	l.mu.Unlock()
	return entry, true
}

// EntryBytes returns the encoded decided entry at pos, for serving catch-up
// fetches — from the pending set when no drain has written its row yet.
func (l *Log) EntryBytes(pos int64) ([]byte, bool) {
	l.mu.Lock()
	raw, ok := l.bytesLocked(pos)
	l.mu.Unlock()
	if !ok {
		return nil, false
	}
	return []byte(raw), true
}

// Snapshot returns every decided log entry known locally, keyed by position.
// Entries are deep copies; intended for the history checker and tooling.
func (l *Log) Snapshot() map[int64]wal.Entry {
	out := make(map[int64]wal.Entry)
	l.mu.Lock()
	for pos, q := range l.pending {
		out[pos] = q.entry.Clone()
	}
	compacted, applied := l.compacted, l.applied
	l.mu.Unlock()
	l.walkApplied(compacted, applied, func(pos int64, row kvstore.Packed) {
		if entry, err := wal.Decode([]byte(paxos.RowEntry(row))); err == nil {
			out[pos] = entry
		}
	})
	return out
}

// walkApplied calls fn with every stored row that held a decided entry at or
// below the watermark when the Log's horizon and watermark were as given.
// With the pending set of that same moment — every decided position above
// the watermark — that is the whole log.
func (l *Log) walkApplied(compacted, applied int64, fn func(pos int64, row kvstore.Packed)) {
	scanLogRows(l.store, l.group, func(pos int64, row kvstore.Packed) {
		if pos <= applied && decidedRow(pos, row, compacted, applied) {
			fn(pos, row)
		}
	})
}

// Count returns how many decided entries the log holds locally — Snapshot's
// size, from a walk of the keys: nothing is decoded or copied.
func (l *Log) Count() int {
	l.mu.Lock()
	n, compacted, applied := len(l.pending), l.compacted, l.applied
	l.mu.Unlock()
	l.walkApplied(compacted, applied, func(int64, kvstore.Packed) { n++ })
	return n
}

// SnapshotHeader returns the applied watermark H and the meta row a replica
// restored at H holds — watermark and horizon H, the epoch state and handoff
// records at H: the first record of a snapshot transfer (core). Watermark and
// epoch are read in one critical section, as drain advances them, so the pair
// is consistent; the record list is filtered by position, so it is exact
// whenever it is read.
func (l *Log) SnapshotHeader() (int64, kvstore.Packed) {
	l.mu.Lock()
	h, epoch := l.applied, l.epoch
	l.mu.Unlock()
	m := metaRow{last: h, compacted: h, epoch: epoch, migrations: encodeMigrations(l.MigrationsAt(h).Records)}
	return h, m.pack()
}

// ParseSnapshotHeader reads a peer's SnapshotHeader into InstallSnapshot's
// arguments. The bytes are outside input: a field that does not parse is an
// error, never a default — an unreadable migrations attribute taken as "no
// handoff records" would drop the fences of a departed range (M1).
func ParseSnapshotHeader(meta kvstore.Packed) (horizon int64, epoch EpochState, mig MigrationState, err error) {
	m, err := readMeta(meta)
	if err == nil {
		mig.Records, err = decodeMigrations(m.migrations)
	}
	return m.last, m.epoch, mig, err
}

// Compact records the new compaction horizon in the meta row and scavenges
// the per-position rows strictly below it. The horizon is clamped to the
// applied watermark. scavenge, when non-nil, is called with the half-open
// position range [from, to) being compacted so the caller can drop its own
// per-position rows (leader claims) and GC data versions below to. Compact
// returns the effective horizon.
//
// The horizon is in force — durable, and in memory — before any row goes:
// once a row is deleted a straggling accept can put an unmarked one back, and
// decidedRow must already read it as no entry. The entry at the horizon
// itself survives, so its row is written in the decided form by the batch
// that records the horizon.
//
// Compact holds ioMu for its whole run so it cannot interleave with a
// snapshot installation: without that, an install could advance the horizon
// past ours between our clamp and our meta write, and we would regress the
// durable horizon below positions whose rows are already scavenged.
func (l *Log) Compact(horizon int64, scavenge func(from, to int64)) (int64, error) {
	l.compactMu.Lock()
	defer l.compactMu.Unlock()
	l.ioMu.Lock()
	defer l.ioMu.Unlock()

	l.mu.Lock()
	if horizon > l.applied {
		horizon = l.applied
	}
	// Unexpired read pins hold the horizon at or below their position: a GC
	// at keepFrom == pin keeps the version visible at the pin, so clamping
	// to the pin itself (not below it) is exactly tight (see PinReads).
	if lowest, pinned := l.prunePinsLocked(time.Now()); pinned && horizon > lowest {
		horizon = lowest
	}
	prev := l.compacted
	atHorizon, held := l.bytesLocked(horizon)
	l.mu.Unlock()
	if horizon <= prev {
		return prev, nil
	}
	var first []kvstore.BatchWrite
	if held {
		first = append(first, decidedWrite(l.group, horizon, atHorizon))
	}
	meta := l.meta
	meta.compacted = horizon
	if err := l.writeMeta(meta, first...); err != nil {
		return 0, err
	}
	l.mu.Lock()
	if horizon > l.compacted {
		l.compacted = horizon
	}
	for pos := range l.cache {
		if pos < horizon {
			delete(l.cache, pos)
		}
	}
	for pos := range l.voided {
		if pos < horizon {
			delete(l.voided, pos)
		}
	}
	l.mu.Unlock()
	if scavenge != nil {
		scavenge(prev+1, horizon)
	}
	for pos := prev + 1; pos < horizon; pos++ {
		l.store.Delete(paxos.StateKey(l.group, pos))
	}
	return horizon, nil
}

// writeMeta lands first, then the meta row replaced with m, in one batch.
// Caller must hold ioMu.
func (l *Log) writeMeta(m metaRow, first ...kvstore.BatchWrite) error {
	if err := l.store.ApplyBatch(append(first, m.write(l.group))); err != nil {
		return err
	}
	l.meta = m
	return nil
}

// decidedWrite returns the batch element that makes the row of pos the
// decided entry, whatever acceptor state it held.
func decidedWrite(group string, pos int64, entry string) kvstore.BatchWrite {
	return kvstore.BatchWrite{Key: paxos.StateKey(group, pos), Value: paxos.DecidedRow(entry), Replace: true}
}

// InstallSnapshot jumps the watermark and compaction horizon to a peer
// snapshot's, and adopts the snapshot's prevailing epoch state — without it
// a replica restored from a snapshot whose establishing claim entry lies
// below the horizon would never learn the epoch and would mis-apply fenced
// entries above it. The snapshot's migration state is adopted for the same
// reason: a replica restored past the handoff positions must still fence
// departed and inbound ranges (DESIGN.md §15). The caller must have landed
// the snapshot's data rows first (kvstore.ApplyBatch); positions above the
// horizon continue through normal catch-up. A snapshot at or below the
// current watermark is a no-op.
//
// The per-position rows the jump passes over are deleted: nothing compacts
// at or below an installed horizon again. They go after the horizon is in
// force, durably and in memory — decidedRow then reads a vote left in (old
// watermark, horizon] as no entry, where under the new watermark alone it
// would be one — so a crash in between finds the votes where they were, under
// the old watermark or the new horizon, never an acceptor that forgot them.
func (l *Log) InstallSnapshot(horizon int64, epoch EpochState, mig MigrationState) error {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	l.mu.Lock()
	if l.applied >= horizon {
		l.mu.Unlock()
		return nil
	}
	if epoch.Epoch < l.epoch.Epoch {
		epoch = l.epoch
	}
	// The snapshot's record list extends ours (both are prefixes of the same
	// log's handoff sequence); adopt the longer one.
	adoptMig := len(mig.Records) > len(l.mig.records)
	l.mu.Unlock()
	meta := l.meta
	meta.last, meta.compacted, meta.epoch = horizon, horizon, epoch
	if adoptMig {
		meta.migrations = encodeMigrations(mig.Records)
	}
	if err := l.writeMeta(meta); err != nil {
		return err
	}
	l.mu.Lock()
	if l.applied < horizon {
		l.applied = horizon
	}
	if l.decidedMax < horizon {
		l.decidedMax = horizon
	}
	if l.compacted < horizon {
		l.compacted = horizon
	}
	if epoch.Epoch > l.epoch.Epoch {
		l.epoch = epoch
		l.renewedAt = time.Now()
	}
	if adoptMig {
		l.mig.rebuild(l.group, mig.Records)
	}
	for pos := range l.pending {
		if pos <= l.applied {
			delete(l.pending, pos)
		}
	}
	for pos := range l.cache {
		if pos <= horizon {
			delete(l.cache, pos)
		}
	}
	l.broadcastLocked()
	l.mu.Unlock()
	scanLogRows(l.store, l.group, func(pos int64, _ kvstore.Packed) {
		if pos <= horizon {
			l.store.Delete(paxos.StateKey(l.group, pos))
		}
	})
	l.notify()
	return nil
}

// --- apply goroutine ------------------------------------------------------

func (l *Log) notify() {
	if l.pool != nil {
		l.pool.schedule(l)
		return
	}
	select {
	case l.notifyCh <- struct{}{}:
	default:
	}
}

// stopped reports whether Close has been called.
func (l *Log) stopped() bool {
	select {
	case <-l.stopCh:
		return true
	default:
		return false
	}
}

// broadcastLocked wakes every WaitApplied waiter. Caller holds l.mu.
func (l *Log) broadcastLocked() {
	close(l.waitCh)
	l.waitCh = make(chan struct{})
}

// cacheLocked inserts a decoded entry, keeping the cache bounded: the
// position trailing the newest by cacheLimit is dropped eagerly, and when
// scattered reads (e.g. a full log scan) still push the size over the
// limit, arbitrary entries are evicted — hot positions simply re-enter on
// their next read. Caller holds l.mu.
func (l *Log) cacheLocked(pos int64, entry wal.Entry) {
	if pos > l.cacheTop {
		l.cacheTop = pos
	}
	delete(l.cache, l.cacheTop-cacheLimit)
	if len(l.cache) >= cacheLimit {
		for p := range l.cache {
			delete(l.cache, p)
			if len(l.cache) < cacheLimit {
				break
			}
		}
	}
	l.cache[pos] = entry
}

func (l *Log) run() {
	for {
		select {
		case <-l.stopCh:
			return
		case <-l.notifyCh:
			l.drain()
		}
	}
}

// drain is what makes a decided entry durable. Each pass lands one
// kvstore.ApplyBatch: the rows, in their decided form, of the positions
// queued since the last pass that need one written — every position still
// above a gap, which no watermark covers, and every position the pass applies
// whose stored row is not already a standing vote for the decided bytes
// (paxos.VoteStands) — then the data writes of the contiguous run above the
// watermark, then, last, the meta row that records the run; after it, one
// watermark advance wakes every waiter. A position whose vote stands gets no
// write at all: the vote's record, flushed by the accept, under the watermark
// that ends the batch is its durable log entry. The batch is logged in that
// order under one sync, and a vote's record precedes the meta record of the
// pass that read it, so a durable meta row implies the rows and data records
// below it are durable (invariant D3), and a waiter released by the pass has
// its entry durable (invariant R2).
// An apply failure (e.g. store closed during shutdown) is sticky and
// surfaces through the waiters and Append.
//
// drain is also where epoch fencing happens (DESIGN.md §11). Entries are
// processed in log order, so the prevailing epoch at each position is a
// deterministic function of the log prefix, identical at every replica:
// a claim entry above the prevailing epoch adopts the new (epoch, master);
// a claim at or below it is void (it lost the claim race logically even
// though it won its Paxos position); and a transaction entry stamped with a
// superseded epoch is void — none of its writes land, anywhere (invariant
// F2). Claim renewals and the master's own stamped traffic both refresh the
// locally observed lease.
func (l *Log) drain() {
	l.ioMu.Lock()
	defer l.ioMu.Unlock()
	for {
		l.mu.Lock()
		if l.applyErr != nil {
			l.mu.Unlock()
			return
		}
		start := l.applied
		pos := start
		var entries []wal.Entry
		for {
			q, ok := l.pending[pos+1]
			if !ok {
				break
			}
			pos++
			entries = append(entries, q.entry)
		}
		writes := l.batch[:0]
		logging := l.unlogged
		l.unlogged = nil
		for _, p := range logging {
			// A snapshot install may have dropped p from pending meanwhile.
			q, ok := l.pending[p]
			if !ok {
				continue
			}
			if p <= pos {
				row, _, err := l.store.ReadPacked(paxos.StateKey(l.group, p), kvstore.Latest)
				if err == nil && paxos.VoteStands(row, q.bytes, q.chosenAt) {
					continue
				}
			}
			writes = append(writes, decidedWrite(l.group, p, q.bytes))
		}
		epoch := l.epoch
		mig := l.mig // shallow view; deep-copied before any mutation
		l.mu.Unlock()
		if pos == start && len(writes) == 0 {
			return
		}

		renewed := false
		migDirty := false
		var newVoid []int64
		var newMoved map[int64]map[string]string
		for i, e := range entries {
			p := start + 1 + int64(i)
			if e.IsClaim() {
				switch {
				case e.Epoch > epoch.Epoch:
					epoch = EpochState{Epoch: e.Epoch, Master: e.Master, Pos: p}
					renewed = true
				case e.Epoch == epoch.Epoch && e.Master == epoch.Master:
					renewed = true // lease renewal by the holder
				default:
					newVoid = append(newVoid, p) // superseded claim: void
				}
				continue
			}
			if e.Epoch != 0 && e.Epoch < epoch.Epoch {
				newVoid = append(newVoid, p) // fenced (F2): applies nothing
				continue
			}
			if e.Epoch != 0 && e.Epoch == epoch.Epoch {
				renewed = true // the master's own traffic renews its lease
			}
			if e.IsHandoff() {
				// A handoff entry that passed the epoch fence changes the
				// group's migration state for every later position
				// (DESIGN.md §15). Mutate a private copy: readers keep
				// reading l.mig under mu until this batch commits.
				if !migDirty {
					mig = mig.deepCopy()
					migDirty = true
				}
				h := e.Handoff
				mig.apply(l.group, HandoffRecord{
					Phase: uint8(h.Phase), From: h.From, To: h.To,
					Groups:  append([]string(nil), h.Groups...),
					Version: h.Version, Pos: p,
				})
				continue
			}
			// Transaction entry: apply per transaction so the migration
			// rules M1/M2 can void individual transactions (a combined
			// entry may mix moved and unmoved write sets). Later
			// transactions still overwrite earlier ones within the entry.
			entryWrites := make(map[string]string, 4)
			for _, t := range e.Txns {
				if to, voided := mig.voidsTxn(t); voided {
					if newMoved == nil {
						newMoved = make(map[int64]map[string]string)
					}
					if newMoved[p] == nil {
						newMoved[p] = make(map[string]string)
					}
					newMoved[p][t.ID] = to
					continue
				}
				for k, v := range t.Writes {
					entryWrites[k] = v
				}
			}
			for k, v := range entryWrites {
				writes = append(writes, kvstore.BatchWrite{
					Key: DataKey(l.group, k), Value: kvstore.PackAttrs("v", v), TS: p,
				})
			}
		}
		meta := l.meta
		if pos > start {
			meta.last, meta.epoch = pos, epoch
			if migDirty {
				meta.migrations = encodeMigrations(mig.records)
			}
			writes = append(writes, meta.write(l.group))
		}
		l.batch = writes
		err := l.store.ApplyBatch(writes)
		if err == nil {
			l.meta = meta
		}

		l.mu.Lock()
		if err != nil {
			l.applyErr = fmt.Errorf("replog: apply %s through %d: %w", l.group, pos, err)
			l.broadcastLocked()
			l.mu.Unlock()
			return
		}
		for _, p := range logging {
			if q, ok := l.pending[p]; ok {
				q.logged = true
				l.pending[p] = q
			}
		}
		for p := start + 1; p <= pos; p++ {
			if q, ok := l.pending[p]; ok {
				l.cacheLocked(p, q.entry)
				delete(l.pending, p)
			}
		}
		for _, p := range newVoid {
			l.voided[p] = true
		}
		if len(l.voided) > cacheLimit {
			for p := range l.voided {
				if p <= pos-cacheLimit {
					delete(l.voided, p)
				}
			}
		}
		for p, m := range newMoved {
			l.movedTxns[p] = m
		}
		if len(l.movedTxns) > cacheLimit {
			for p := range l.movedTxns {
				if p <= pos-cacheLimit {
					delete(l.movedTxns, p)
				}
			}
		}
		if migDirty {
			l.mig = mig
		}
		if epoch.Epoch > l.epoch.Epoch {
			l.epoch = epoch
		}
		if renewed {
			l.renewedAt = time.Now()
		}
		if pos > l.applied {
			l.applied = pos
		}
		l.broadcastLocked()
		l.mu.Unlock()
	}
}

// Set owns the Logs of every group served over one store; the Transaction
// Service holds one Set in place of the seed's per-group mutex maps. A Set's
// logs share one applyPool with GOMAXPROCS workers keyed by group, instead
// of one apply goroutine each (DESIGN.md §13).
type Set struct {
	store *kvstore.Store
	pool  *applyPool

	mu     sync.Mutex
	logs   map[string]*Log
	closed bool
}

// NewSet returns an empty Set over store. Logs open lazily on first Get.
func NewSet(store *kvstore.Store) *Set {
	return &Set{
		store: store,
		pool:  newApplyPool(runtime.GOMAXPROCS(0)),
		logs:  make(map[string]*Log),
	}
}

// Get returns group's Log, opening it on first use.
func (s *Set) Get(group string) *Log {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.logs[group]
	if l == nil {
		l = open(s.store, group, s.pool)
		if s.closed {
			l.Close()
		}
		s.logs[group] = l
	}
	return l
}

// Groups returns the names of every group with an open Log, sorted. This is
// the replica's group-discovery surface: a group exists here once any
// traffic (or an explicit EnsureGroups/open) has touched it.
func (s *Set) Groups() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.logs))
	for g := range s.logs {
		out = append(out, g)
	}
	sort.Strings(out)
	return out
}

// Close stops every open Log and then the shared apply pool.
func (s *Set) Close() {
	s.mu.Lock()
	s.closed = true
	for _, l := range s.logs {
		l.Close()
	}
	s.mu.Unlock()
	s.pool.close()
}
