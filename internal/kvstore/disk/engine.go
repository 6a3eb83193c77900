package disk

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"paxoscp/internal/kvstore"
)

// SyncPolicy selects when the engine fsyncs the write-ahead log relative to
// acknowledging a mutation (the txkvd -fsync flag; bench.Durability measures
// the three against each other).
type SyncPolicy string

const (
	// SyncEvery fsyncs once per acknowledged mutation — the honest
	// no-batching baseline. Durability bound: nothing acknowledged is ever
	// lost.
	SyncEvery SyncPolicy = "sync"
	// SyncBatch (the default) group-commits: the first waiter performs the
	// fsync, a second that arrives meanwhile starts its own beside it
	// (batchFlushers), and every mutation that queues behind those two is
	// absorbed into the next one, so N concurrent writers pay a few fsyncs,
	// not N. Durability bound: same as SyncEvery — every acknowledged
	// mutation is durable — only the acknowledgement latency differs.
	SyncBatch SyncPolicy = "batch"
	// SyncInterval acknowledges immediately and fsyncs on a timer. The only
	// policy that can lose acknowledged mutations on power loss (up to one
	// interval's worth); a clean Close still flushes everything.
	SyncInterval SyncPolicy = "interval"
)

// ParsePolicy converts a -fsync flag value into a SyncPolicy.
func ParsePolicy(s string) (SyncPolicy, error) {
	switch SyncPolicy(s) {
	case SyncEvery, SyncBatch, SyncInterval:
		return SyncPolicy(s), nil
	case "":
		return SyncBatch, nil
	}
	return "", fmt.Errorf("disk: unknown fsync policy %q (want sync, batch, or interval)", s)
}

// Options tunes an engine. The zero value is usable: batch fsync, 4 MiB
// segments, compaction after 2 sealed segments, 50 ms interval-policy timer,
// silent logging.
type Options struct {
	// Fsync is the sync policy; empty means SyncBatch.
	Fsync SyncPolicy
	// SegmentBytes rotates the active WAL segment once its durable size
	// reaches this many bytes. Default 4 MiB.
	SegmentBytes int64
	// CompactSegments triggers a snapshot + log compaction when this many
	// sealed (rotated-out) segments exist. Default 2.
	CompactSegments int
	// Interval is the SyncInterval flush period. Default 50 ms.
	Interval time.Duration
	// Logf receives recovery and compaction log lines (docs/OPERATIONS.md
	// documents the format). nil discards them.
	Logf func(format string, args ...any)
	// FS routes every file operation the engine performs; nil means the
	// real filesystem (OSFS). Tests inject storage faults through
	// internal/kvstore/disk/faultfs.
	FS FS
	// OnFail is invoked exactly once, with the first failure, when the
	// engine fail-stops (fsync error, write error, ENOSPC, simulated power
	// loss). It runs on the failing goroutine and may be called while
	// engine locks are held by callers — keep it quick and do not call back
	// into the engine. nil disables the callback.
	OnFail func(error)
	// ScrubInterval enables the background checksum scrub: every interval,
	// the engine re-reads all sealed WAL segments (verifying each record's
	// CRC framing) and all snapshots (verifying they still decode) and
	// records any corruption as health state — never as a crash. 0 disables
	// the background pass; Engine.Scrub still runs one on demand.
	ScrubInterval time.Duration
}

func (o Options) withDefaults() Options {
	if o.Fsync == "" {
		o.Fsync = SyncBatch
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.CompactSegments <= 0 {
		o.CompactSegments = 2
	}
	if o.Interval <= 0 {
		o.Interval = 50 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.FS == nil {
		o.FS = osFS{}
	}
	return o
}

// ErrCrashed is the sticky failure installed by Crash: the simulated
// power loss every subsequent operation reports.
var ErrCrashed = errors.New("disk: engine crashed (simulated power loss)")

var errClosed = errors.New("disk: engine closed")

// Engine is the disk-backed kvstore.Engine: an append-only WAL with
// group-commit fsync batching, segment rotation, and snapshot-based
// compaction. Construct with Open, which also performs crash recovery.
//
// Lock order is flushMu, writeMu, mu, never nested the other way: mu guards
// the in-memory queue (encode + sequence assignment, O(record) work), writeMu
// the order of file writes, flushMu the segment file itself. An fsync holds
// flushMu shared and neither of the others, so appends keep queuing while it
// runs — that queue is exactly the batch the next fsync absorbs — and one more
// flush may write and fsync beside it.
type Engine struct {
	dir   string
	opts  Options
	fs    FS
	store *kvstore.Store

	// flushMu guards the active segment file against rotation, Close and
	// Crash: a flush holds it shared for its write and fsync, whatever swaps
	// or seals the file holds it exclusively — as do the flushes that are not
	// group commits (SyncEvery, the interval ticker, Close, a snapshot's).
	flushMu sync.RWMutex
	// writeMu serializes a flush's capture of the queue and its file write, so
	// the segment holds records in sequence order; the fsync runs outside it.
	writeMu sync.Mutex

	mu       sync.Mutex
	buf      []byte   // records encoded but not yet written to the file
	spare    [][]byte // recycled bufs to keep steady-state appends allocation-free
	appended uint64   // seq of the last record in buf (or flushed)
	captured uint64   // seq of the last record a flush has taken out of buf
	written  int64    // bytes written to the active segment (guarded by writeMu)
	flushed  uint64   // seq of the last record durable on disk
	// Group-commit election state (SyncBatch only): up to batchFlushers
	// flushes at a time; batchWaiting riders wait on batchCond (signaled on
	// &mu) and are all woken by a flusher's broadcast when its records land.
	batchFlushing int
	batchWaiting  int
	batchCond     *sync.Cond
	f             File   // active segment
	size          int64  // durable bytes in the active segment
	segStart      uint64 // first seq of the active segment
	fsyncs        uint64 // segment fsyncs performed (group-commit absorption metric)
	err           error  // sticky failure; fail-stop
	closed        bool

	snapWG   sync.WaitGroup
	snapBusy bool // single-flight snapshot/compaction

	// Scrub health (scrub.go): passes completed and the corrupt files the
	// latest pass found. Corruption is reported here — health, not a crash.
	scrubMu      sync.Mutex
	scrubRuns    int
	scrubCorrupt []string

	stop chan struct{} // interval-policy ticker shutdown
	done chan struct{}

	scrubStop chan struct{} // background scrub shutdown
	scrubDone chan struct{}
}

// Append implements kvstore.Engine: encode muts into the in-memory queue and
// assign them the next sequence numbers. No file I/O happens here.
func (e *Engine) Append(muts []kvstore.Mutation) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.err != nil {
		return 0, e.err
	}
	if e.closed {
		return 0, errClosed
	}
	for i := range muts {
		e.buf = kvstore.AppendRecord(e.buf, muts[i])
	}
	e.appended += uint64(len(muts))
	return e.appended, nil
}

// Sync implements kvstore.Engine per the configured policy.
func (e *Engine) Sync(seq uint64) error {
	switch e.opts.Fsync {
	case SyncInterval:
		// Acknowledge immediately; the ticker flushes. Only the sticky
		// failure is surfaced.
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.err
	case SyncEvery:
		// One unconditional fsync per acknowledged mutation, even when a
		// predecessor's fsync already covered this record: this is the
		// honest no-batching baseline bench.Durability compares against.
		e.flushMu.Lock()
		defer e.flushMu.Unlock()
		return e.flushAndRotate(true)
	default: // SyncBatch
		// Group commit without a waiter convoy: an uncovered caller elects
		// itself flusher when no flush is running, or when one is and nobody is
		// waiting yet (batchFlushers); everyone else — a caller whose record a
		// running flush already took, a newcomer that finds other callers
		// waiting, or no flusher's place free — waits on the condition variable
		// and is woken, with all the others, by a flusher's broadcast. Riders never
		// queue on a mutex just to learn they're covered: with serial mutex
		// hand-off a hot writer barges the lock back and degenerates group
		// commit into one fsync per record.
		e.mu.Lock()
		defer e.mu.Unlock()
		waited := false
		for {
			if e.err != nil {
				return e.err
			}
			if e.flushed >= seq {
				return nil
			}
			if e.captured >= seq || e.batchFlushing == batchFlushers ||
				(e.batchFlushing > 0 && e.batchWaiting > 0 && !waited) {
				e.batchWaiting++
				e.batchCond.Wait()
				e.batchWaiting--
				waited = true
				continue
			}
			e.batchFlushing++
			e.mu.Unlock()
			// Gather step: yield once so every writer that is runnable right
			// now — typically the riders the previous broadcast released —
			// Appends before we capture the batch. On few-core machines the
			// runtime rarely hands our P off mid-fsync, so without this the
			// batch would hold only the records queued while we slept.
			runtime.Gosched()
			e.flushMu.RLock()
			full, err := e.flush(false)
			e.flushMu.RUnlock()
			if err == nil && full {
				e.flushMu.Lock()
				err = e.rotateIfFull()
				e.flushMu.Unlock()
			}
			e.mu.Lock()
			e.batchFlushing--
			e.batchCond.Broadcast()
			if err != nil {
				return err
			}
		}
	}
}

// batchFlushers is how many group-commit flushes may run at once. With one, a
// Sync that arrives while a flush is under way waits for that flush and then
// for its own: what an acknowledgement costs depends on whether somebody
// else's fsync happens to be running, between one fsync and two. With two it
// starts its own at once, beside the one running — the file is written in
// sequence order either way, and an fsync covers every byte written before it
// was called, so whichever returns first makes everything up to its own
// capture durable. The second place is for a caller that would otherwise wait
// alone. Once callers are waiting, a newcomer waits with them and they ride
// the next flush together, which is the absorption SyncBatch is for: under
// many writers a flush started early carries one record where the next would
// have carried the queue (16 writers on a disk that serialises flushes: about
// 130 fsyncs per 1000 writes and a quarter less throughput without this rule,
// 70 to 80 with it, as with one flusher).
const batchFlushers = 2

// flush drains the queue to the active segment and fsyncs. Caller must hold
// flushMu, shared or exclusively. force fsyncs even when the queue is empty
// (SyncEvery, Close). full reports that the segment has reached its size and
// wants rotating, which needs flushMu exclusively (rotateIfFull).
func (e *Engine) flush(force bool) (full bool, err error) {
	e.writeMu.Lock()
	e.mu.Lock()
	if err := e.err; err != nil {
		e.mu.Unlock()
		e.writeMu.Unlock()
		return false, err
	}
	buf := e.buf
	e.buf = nil
	if n := len(e.spare); n > 0 {
		e.buf, e.spare = e.spare[n-1], e.spare[:n-1]
	}
	seq := e.appended
	e.captured = seq
	f := e.f
	e.mu.Unlock()
	if len(buf) > 0 {
		if _, err := f.Write(buf); err != nil {
			e.writeMu.Unlock()
			return false, e.fail(fmt.Errorf("disk: segment write: %w", err))
		}
		e.written += int64(len(buf))
	}
	end := e.written
	e.writeMu.Unlock()
	synced := false
	if len(buf) > 0 || force {
		// Everything written so far — by this flush and by the ones before
		// it — is what this fsync makes durable.
		if err := f.Sync(); err != nil {
			return false, e.fail(fmt.Errorf("disk: segment fsync: %w", err))
		}
		synced = true
	}
	e.mu.Lock()
	if synced {
		e.fsyncs++
	}
	// Only forward — the flush beside this one may have returned first with
	// more — and not at all once the engine has failed: after a failed fsync
	// a later one that succeeds proves nothing about the bytes before it.
	if e.err == nil {
		if seq > e.flushed {
			e.flushed = seq
		}
		if end > e.size {
			e.size = end
		}
	}
	if buf != nil && len(e.spare) < batchFlushers {
		e.spare = append(e.spare, buf[:0])
	}
	full = e.size >= e.opts.SegmentBytes
	// A rider whose record this flush took waits for it whoever ran it — a
	// snapshot's or Close's flush has no election to wake it from.
	e.batchCond.Broadcast()
	e.mu.Unlock()
	return full, nil
}

// flushAndRotate is flush for a caller that holds flushMu exclusively.
func (e *Engine) flushAndRotate(force bool) error {
	full, err := e.flush(force)
	if err != nil || !full {
		return err
	}
	return e.rotateIfFull()
}

// rotateIfFull seals the active segment, if it (still) has reached its size,
// and opens a fresh one starting at the next sequence number. Caller must
// hold flushMu exclusively: no flush is under way, so everything written to
// the segment is fsynced.
func (e *Engine) rotateIfFull() error {
	e.mu.Lock()
	full, flushedSeq, err := e.size >= e.opts.SegmentBytes, e.flushed, e.err
	e.mu.Unlock()
	if err != nil {
		return err // the other flusher failed: its bytes may not be durable
	}
	if !full {
		return nil // the other flusher got here first
	}
	next, err := createSegment(e.fs, e.dir, flushedSeq+1)
	if err != nil {
		return e.fail(err)
	}
	e.mu.Lock()
	old := e.f
	e.f = next
	e.size = 0
	e.written = 0
	e.segStart = flushedSeq + 1
	e.mu.Unlock()
	if err := old.Close(); err != nil {
		return e.fail(fmt.Errorf("disk: sealing segment: %w", err))
	}
	sealed, _, err := listSegments(e.fs, e.dir)
	if err != nil {
		return e.fail(err)
	}
	if len(sealed)-1 >= e.opts.CompactSegments {
		e.maybeSnapshot()
	}
	return nil
}

// maybeSnapshot kicks off one background snapshot + compaction unless one is
// already running or the engine is closed/poisoned.
func (e *Engine) maybeSnapshot() {
	e.mu.Lock()
	if e.snapBusy || e.closed || e.err != nil {
		e.mu.Unlock()
		return
	}
	e.snapBusy = true
	e.mu.Unlock()
	e.snapWG.Add(1)
	go func() {
		defer e.snapWG.Done()
		err := e.snapshot()
		e.mu.Lock()
		e.snapBusy = false
		e.mu.Unlock()
		if err != nil {
			e.fail(err)
		}
	}()
}

// snapshot writes a durable snapshot at the current durable horizon
// (flushed, NOT appended) and removes the log segments (and older
// snapshots) it supersedes.
//
// Safety of the capture point: S is read under mu, so every record with
// sequence number <= S was Appended — and, by the store's
// apply-then-Append mutation protocol, applied to the in-memory image —
// before the capture. Store.Save therefore reflects every mutation <= S,
// and any sealed segment whose records all have seq <= S is redundant once
// the snapshot is durable.
//
// The horizon must be the flushed seq, not the appended one: records still
// queued in buf are not yet on disk, so a snapshot claiming to cover them
// could outlive them — after a power loss the WAL ends at some F < S while
// snap-S survives, Open resumes appending at F+1, and acknowledged writes
// get assigned sequence numbers <= S that the next recovery would silently
// skip. flushed records, by contrast, are durable before S is captured, so
// snapSeq can never exceed the log end a crash leaves behind.
//
// Writers keep running during Store.Save, so the image also reflects some
// mutations past S whose records may still be queued. The snapshot is
// published only after those records are flushed too (syncAppended): a
// batch's records are queued in order and its later rows can be captured
// while its earlier ones were not, so without the flush a crash could
// recover a later row of a batch from the snapshot with the earlier rows'
// records lost — for the replicated log's apply batch, a meta row claiming
// positions whose data writes are gone (invariant D3).
func (e *Engine) snapshot() error {
	e.mu.Lock()
	s := e.flushed
	e.mu.Unlock()
	if err := writeSnapshot(e.fs, e.dir, s, e.store, e.syncAppended); err != nil {
		return err
	}
	removed, err := compactTo(e.fs, e.dir, s)
	if err != nil {
		return err
	}
	e.opts.Logf("disk: snapshot seq=%d dir=%s removed_segments=%d", s, e.dir, removed)
	return nil
}

// syncAppended makes every record appended so far durable, whatever the
// sync policy.
func (e *Engine) syncAppended() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	return e.flushAndRotate(false)
}

// fail records the first failure; the engine (and the store above it,
// through kvstore's sticky engineErr) fail-stops all further mutations.
// The first failure is reported loudly — one ERROR-level line describing
// the fail-stop and its operational consequence, plus the Options.OnFail
// callback — so a replica dying of a sick disk is visible to operators,
// not just to the clients whose writes start failing.
func (e *Engine) fail(err error) error {
	e.mu.Lock()
	first := e.err == nil
	if first {
		e.err = err
		e.opts.Logf("disk: ERROR: engine failed (fail-stop): %v", err)
		e.opts.Logf("disk: this replica no longer acknowledges mutations (dir=%s); reads keep serving the in-memory image, and mastership fails over once the lease lapses", e.dir)
	} else {
		err = e.err
	}
	e.batchCond.Broadcast()
	e.mu.Unlock()
	if first && e.opts.OnFail != nil {
		e.opts.OnFail(err)
	}
	return err
}

// Fault reports the engine's sticky failure, nil while healthy. The
// fail-stop is permanent for the process: recovery requires reopening the
// data directory (disk.Open), typically after replacing the bad disk.
func (e *Engine) Fault() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.err
}

// Close flushes and fsyncs everything queued, waits for any in-flight
// snapshot, and releases the segment file. Idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	if e.stop != nil {
		close(e.stop)
		<-e.done
	}
	if e.scrubStop != nil {
		close(e.scrubStop)
		<-e.scrubDone
	}
	e.snapWG.Wait()
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	_, err := e.flush(false)
	e.mu.Lock()
	f := e.f
	crashed := errors.Is(e.err, ErrCrashed)
	e.mu.Unlock()
	if cerr := f.Close(); cerr != nil && err == nil && !crashed {
		err = cerr
	}
	if crashed {
		return nil // Crash already sealed the files; nothing left to flush
	}
	return err
}

// Crash simulates power loss for tests: every queued-but-unflushed byte
// (the "page cache") is discarded, the active segment is truncated to its
// durable prefix, and the engine is poisoned so the store above fail-stops.
// The on-disk state is exactly what a kill -9 plus machine reset would
// leave; reopen the directory with Open to recover.
func (e *Engine) Crash() {
	// Wait for a running snapshot before taking flushMu: it flushes the log
	// before publishing. One that starts after the wait blocks on that flush
	// until the engine is poisoned, and then abandons its temp file.
	e.snapWG.Wait()
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.mu.Lock()
	if e.err == nil {
		e.err = ErrCrashed
	}
	e.buf = nil
	e.spare = nil
	f := e.f
	size := e.size
	e.batchCond.Broadcast()
	e.mu.Unlock()
	_ = f.Truncate(size)
	_ = f.Close()
}

// Dir returns the engine's data directory.
func (e *Engine) Dir() string { return e.dir }

// Fsyncs returns how many segment fsyncs the engine has performed. The
// group-commit absorption metric: under SyncBatch, N concurrent acknowledged
// writes cost far fewer than N fsyncs (bench.Durability and its pinned test).
func (e *Engine) Fsyncs() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.fsyncs
}

// helpers shared with open.go

func createSegment(fs FS, dir string, startSeq uint64) (File, error) {
	f, err := fs.OpenFile(filepath.Join(dir, segmentName(startSeq)),
		os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("disk: create segment: %w", err)
	}
	if err := syncDir(fs, dir); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

func syncDir(fs FS, dir string) error {
	d, err := fs.OpenFile(dir, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("disk: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("disk: fsync dir: %w", err)
	}
	return nil
}

// writeSnapshot durably writes snap-<seq>.snap via temp file + rename + dir
// fsync, so a crash at any point leaves either no snapshot or a complete one.
// publish runs once the image is captured and must succeed before the
// snapshot becomes visible to recovery.
func writeSnapshot(fs FS, dir string, seq uint64, s *kvstore.Store, publish func() error) error {
	tmp, err := fs.CreateTemp(dir, ".disk-snap-*")
	if err != nil {
		return fmt.Errorf("disk: snapshot temp: %w", err)
	}
	defer fs.Remove(tmp.Name())
	if err := s.Save(tmp); err != nil {
		tmp.Close()
		return fmt.Errorf("disk: snapshot save: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("disk: snapshot fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("disk: snapshot close: %w", err)
	}
	if err := publish(); err != nil {
		return err
	}
	if err := fs.Rename(tmp.Name(), filepath.Join(dir, snapshotName(seq))); err != nil {
		return fmt.Errorf("disk: snapshot rename: %w", err)
	}
	return syncDir(fs, dir)
}

// compactTo removes snapshots older than seq and every sealed segment whose
// records are all <= seq (the newest segment — the active one — is never
// removed). Returns the number of segments removed.
func compactTo(fs FS, dir string, seq uint64) (int, error) {
	segs, snaps, err := listSegments(fs, dir)
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, s := range snaps {
		if s < seq {
			if err := fs.Remove(filepath.Join(dir, snapshotName(s))); err != nil {
				return removed, fmt.Errorf("disk: compact: %w", err)
			}
		}
	}
	// Segment i covers [segs[i], segs[i+1]-1]: removable when the next
	// segment starts at or below seq+1.
	for i := 0; i+1 < len(segs) && segs[i+1] <= seq+1; i++ {
		if err := fs.Remove(filepath.Join(dir, segmentName(segs[i]))); err != nil {
			return removed, fmt.Errorf("disk: compact: %w", err)
		}
		removed++
	}
	if removed > 0 {
		return removed, syncDir(fs, dir)
	}
	return removed, nil
}

// listSegments returns the start sequence numbers of all WAL segments and
// all snapshot sequence numbers in dir, each sorted ascending.
func listSegments(fs FS, dir string) (segs, snaps []uint64, err error) {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("disk: read dir: %w", err)
	}
	for _, ent := range entries {
		if n, ok := parseSeq(ent.Name(), "wal-", ".log"); ok {
			segs = append(segs, n)
		} else if n, ok := parseSeq(ent.Name(), "snap-", ".snap"); ok {
			snaps = append(snaps, n)
		}
	}
	// os.ReadDir sorts by name and the names are zero-padded to 20 digits,
	// so both slices are already ascending.
	return segs, snaps, nil
}
