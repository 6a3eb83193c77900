package disk

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"paxoscp/internal/kvstore"
)

// Open recovers (or initializes) the data directory and returns a store
// whose mutations are durably logged by the returned engine. Recovery:
//
//  1. delete leftover temp files (interrupted snapshot writes);
//  2. load the newest snapshot, if any, into a fresh store (seq horizon S):
//     a stream of WAL records, so loading is replaying (kvstore.Load). One
//     that does not read to its trailer — rot, or the gob image of an older
//     build — fails Open by name, with nothing touched;
//  3. replay every WAL record with sequence number > S, in order, via
//     Store.ApplyMutation — idempotent, so records the snapshot already
//     reflects are harmless (invariant D2);
//  4. truncate a torn tail of the final segment (the power-loss signature);
//     a malformed record in any sealed segment is corruption and Open fails;
//  5. continue appending to the final segment.
//
// The returned store has the engine attached: every subsequent mutation is
// logged before it acknowledges, per Options.Fsync. Close the store (or the
// engine) before opening the same directory again; concurrent engines on one
// directory are not detected.
func Open(dir string, opts Options) (*kvstore.Store, *Engine, error) {
	opts = opts.withDefaults()
	fs := opts.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("disk: open: %w", err)
	}
	if err := removeTemps(fs, dir); err != nil {
		return nil, nil, err
	}
	segs, snaps, err := listSegments(fs, dir)
	if err != nil {
		return nil, nil, err
	}

	store := kvstore.New()
	var snapSeq uint64
	if len(snaps) > 0 {
		snapSeq = snaps[len(snaps)-1]
		f, err := fs.OpenFile(filepath.Join(dir, snapshotName(snapSeq)), os.O_RDONLY, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("disk: open snapshot: %w", err)
		}
		store, err = kvstore.Load(f)
		f.Close()
		if err != nil {
			return nil, nil, fmt.Errorf("disk: snapshot %s: %w; the directory is left as it is — a replica started on an empty directory installs its state from its peers", snapshotName(snapSeq), err)
		}
	}

	// Drop segments the snapshot fully covers (normally compaction already
	// removed them; a crash between snapshot and compaction leaves them).
	for len(segs) > 1 && segs[1] <= snapSeq+1 {
		if err := fs.Remove(filepath.Join(dir, segmentName(segs[0]))); err != nil {
			return nil, nil, fmt.Errorf("disk: drop covered segment: %w", err)
		}
		segs = segs[1:]
	}
	if len(segs) > 0 && segs[0] > snapSeq+1 {
		return nil, nil, fmt.Errorf("disk: missing WAL segment(s): snapshot covers <=%d but oldest segment starts at %d", snapSeq, segs[0])
	}

	lastSeq := snapSeq
	replayed, truncated := 0, int64(0)
	for i, start := range segs {
		final := i == len(segs)-1
		end, n, trunc, err := replaySegment(fs, dir, start, snapSeq, final, store)
		if err != nil {
			return nil, nil, err
		}
		replayed += n
		truncated += trunc
		if !final && end+1 != segs[i+1] {
			return nil, nil, fmt.Errorf("disk: segment %s ends at seq %d but next segment starts at %d", segmentName(start), end, segs[i+1])
		}
		lastSeq = end
	}

	// A snapshot horizon past the log end means appending at lastSeq+1 would
	// reuse sequence numbers the snapshot claims to cover — the next
	// recovery would silently skip those acknowledged writes. The engine
	// only snapshots at the flushed (durable) horizon so this cannot arise
	// from a crash; it can still appear in directories written by older
	// builds or hand-edited ones. Recover by dropping the fully-covered
	// segments and restarting the log at snapSeq+1.
	if lastSeq < snapSeq {
		opts.Logf("disk: snapshot seq=%d is past the log end seq=%d; restarting the log at %d", snapSeq, lastSeq, snapSeq+1)
		for _, start := range segs {
			if err := fs.Remove(filepath.Join(dir, segmentName(start))); err != nil {
				return nil, nil, fmt.Errorf("disk: drop covered segment: %w", err)
			}
		}
		segs = nil
		lastSeq = snapSeq
	}

	// Older snapshots are never read again once a newer one loaded.
	for _, s := range snaps {
		if s < snapSeq {
			if err := fs.Remove(filepath.Join(dir, snapshotName(s))); err != nil {
				return nil, nil, fmt.Errorf("disk: drop old snapshot: %w", err)
			}
		}
	}

	e := &Engine{
		dir:      dir,
		opts:     opts,
		fs:       fs,
		store:    store,
		appended: lastSeq,
		captured: lastSeq,
		flushed:  lastSeq,
	}
	e.batchCond = sync.NewCond(&e.mu)
	if len(segs) == 0 {
		e.segStart = snapSeq + 1
		e.f, err = createSegment(fs, dir, e.segStart)
		if err != nil {
			return nil, nil, err
		}
	} else {
		e.segStart = segs[len(segs)-1]
		name := filepath.Join(dir, segmentName(e.segStart))
		e.f, err = fs.OpenFile(name, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			return nil, nil, fmt.Errorf("disk: reopen segment: %w", err)
		}
		st, err := e.f.Stat()
		if err != nil {
			e.f.Close()
			return nil, nil, fmt.Errorf("disk: stat segment: %w", err)
		}
		e.size = st.Size()
		e.written = e.size
	}
	if opts.Fsync == SyncInterval {
		e.stop = make(chan struct{})
		e.done = make(chan struct{})
		go e.intervalLoop()
	}
	if opts.ScrubInterval > 0 {
		e.scrubStop = make(chan struct{})
		e.scrubDone = make(chan struct{})
		go e.scrubLoop()
	}
	store.AttachEngine(e)
	opts.Logf("disk: recovered dir=%s snapshot_seq=%d segments=%d replayed=%d truncated_bytes=%d last_seq=%d fsync=%s",
		dir, snapSeq, len(segs), replayed, truncated, lastSeq, opts.Fsync)
	return store, e, nil
}

// replaySegment reads one segment, applying every record with seq > snapSeq
// to store. It returns the last sequence number the segment holds, the
// number of records applied, and how many torn-tail bytes it truncated
// (final segment only).
func replaySegment(fs FS, dir string, start, snapSeq uint64, final bool, store *kvstore.Store) (end uint64, applied int, truncated int64, err error) {
	path := filepath.Join(dir, segmentName(start))
	f, err := fs.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return 0, 0, 0, fmt.Errorf("disk: open segment: %w", err)
	}
	cr := &countingReader{r: f}
	br := bufio.NewReader(cr)
	seq := start - 1
	for {
		recStart := cr.n - int64(br.Buffered())
		m, rerr := kvstore.ReadRecord(br)
		if rerr == io.EOF {
			break
		}
		if errors.Is(rerr, kvstore.ErrTorn) {
			if !final {
				f.Close()
				return 0, 0, 0, fmt.Errorf("disk: sealed segment %s corrupt: %w", segmentName(start), rerr)
			}
			st, serr := f.Stat()
			f.Close()
			if serr != nil {
				return 0, 0, 0, fmt.Errorf("disk: stat segment: %w", serr)
			}
			truncated = st.Size() - recStart
			if terr := fs.Truncate(path, recStart); terr != nil {
				return 0, 0, 0, fmt.Errorf("disk: truncate torn tail: %w", terr)
			}
			// Make the truncation durable before the segment is appended to
			// again: without the fsync a second crash could bring the stale
			// torn-tail bytes back, interleaved after newly appended records
			// at a boundary the CRC framing is not guaranteed to reject.
			tf, terr := fs.OpenFile(path, os.O_WRONLY, 0)
			if terr != nil {
				return 0, 0, 0, fmt.Errorf("disk: reopen truncated segment: %w", terr)
			}
			serr = tf.Sync()
			if cerr := tf.Close(); serr == nil {
				serr = cerr
			}
			if serr != nil {
				return 0, 0, 0, fmt.Errorf("disk: fsync truncated segment: %w", serr)
			}
			if derr := syncDir(fs, dir); derr != nil {
				return 0, 0, 0, derr
			}
			return seq, applied, truncated, nil
		}
		if rerr != nil {
			f.Close()
			return 0, 0, 0, fmt.Errorf("disk: segment %s: %w", segmentName(start), rerr)
		}
		seq++
		if seq > snapSeq {
			if aerr := store.ApplyMutation(m); aerr != nil {
				f.Close()
				return 0, 0, 0, fmt.Errorf("disk: replay seq %d: %w", seq, aerr)
			}
			applied++
		}
	}
	f.Close()
	return seq, applied, 0, nil
}

type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// removeTemps deletes interrupted snapshot temp files (".disk-*"), which are
// never referenced by recovery.
func removeTemps(fs FS, dir string) error {
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("disk: read dir: %w", err)
	}
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), ".disk-") {
			if err := fs.Remove(filepath.Join(dir, ent.Name())); err != nil {
				return fmt.Errorf("disk: remove temp: %w", err)
			}
		}
	}
	return nil
}

// intervalLoop is the SyncInterval background flusher.
func (e *Engine) intervalLoop() {
	defer close(e.done)
	t := time.NewTicker(e.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.flushMu.Lock()
			_ = e.flushAndRotate(false)
			e.flushMu.Unlock()
		case <-e.stop:
			return
		}
	}
}
