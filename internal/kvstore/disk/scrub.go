package disk

import (
	"bufio"
	"errors"
	"io"
	"os"
	"path/filepath"
	"time"

	"paxoscp/internal/kvstore"
)

// Background checksum scrub. Sealed WAL segments and snapshots are written
// once and read again only at recovery — bit rot in them stays invisible
// until the exact moment the data is needed, when a corrupt sealed segment
// turns a routine restart into a hard Open failure. The scrub re-reads the
// immutable files ahead of time: every record in every sealed segment is
// re-verified against its CRC framing, and so is every record of every
// snapshot — a snapshot is a stream of the same records, closed by a trailer
// that a truncated file lacks (kvstore.VerifySnapshot). Nothing is rebuilt: a
// pass holds one record at a time, whatever the file's size.
// Corruption found this way is HEALTH, not a crash: the in-memory image and
// the mutation path are unaffected, so the replica keeps serving while the
// operator (alerted through GroupStatus/txkvctl, see docs/OPERATIONS.md)
// re-replicates the data before the next recovery needs it.

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Segments and Snapshots count the sealed files verified; Records the
	// records in them whose CRC framing was re-checked.
	Segments  int
	Snapshots int
	Records   int
	// Corrupt lists the file names (not paths) that failed verification.
	Corrupt []string
}

// Scrub runs one synchronous scrub pass and records its findings in the
// engine's health state (HealthSummary). The active WAL segment is skipped —
// it is being appended to and its tail is allowed to be torn — and files
// compacted away mid-pass are skipped, not reported. Scrub never poisons
// the engine: detecting rot in a sealed file is exactly the case where the
// replica must keep serving so the data can be re-replicated from it.
func (e *Engine) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	segs, snaps, err := listSegments(e.fs, e.dir)
	if err != nil {
		return rep, err
	}
	e.mu.Lock()
	active := e.segStart
	e.mu.Unlock()
	for _, start := range segs {
		if start == active {
			continue
		}
		if err := e.scrubFile(&rep, &rep.Segments, segmentName(start), verifySegment); err != nil {
			return rep, err
		}
	}
	for _, seq := range snaps {
		if err := e.scrubFile(&rep, &rep.Snapshots, snapshotName(seq), kvstore.VerifySnapshot); err != nil {
			return rep, err
		}
	}
	e.scrubMu.Lock()
	e.scrubRuns++
	e.scrubCorrupt = append([]string(nil), rep.Corrupt...)
	e.scrubMu.Unlock()
	if len(rep.Corrupt) > 0 {
		e.opts.Logf("disk: ERROR: scrub found corruption dir=%s files=%v — re-replicate this replica before its next recovery", e.dir, rep.Corrupt)
	}
	return rep, nil
}

// scrubFile re-reads one immutable file through verify, which returns how
// many records it checked and the first thing wrong with them, and enters the
// outcome in rep (files is the count of its kind). A file that disappeared —
// compaction won the race — is skipped, not reported.
func (e *Engine) scrubFile(rep *ScrubReport, files *int, name string, verify func(io.Reader) (int, error)) error {
	f, err := e.fs.OpenFile(filepath.Join(e.dir, name), os.O_RDONLY, 0)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	n, verr := verify(f)
	*files++
	rep.Records += n
	if verr != nil {
		rep.Corrupt = append(rep.Corrupt, name)
	}
	return nil
}

// verifySegment reads a sealed segment to its end. Any malformed record in a
// SEALED segment — torn framing, CRC mismatch, undecodable payload — is rot:
// sealed files never legitimately end mid-record.
func verifySegment(r io.Reader) (int, error) {
	br := bufio.NewReader(r)
	for n := 0; ; n++ {
		if _, err := kvstore.ReadRecord(br); err != nil {
			if err == io.EOF {
				err = nil
			}
			return n, err
		}
	}
}

// HealthSummary reports the engine's health for operator surfacing
// (core.GroupStatus, txkvctl status): the sticky fail-stop reason ("" while
// healthy), how many scrub passes have completed, and the corrupt files the
// latest pass found.
func (e *Engine) HealthSummary() (fault string, scrubRuns int, scrubCorrupt []string) {
	if err := e.Fault(); err != nil {
		fault = err.Error()
	}
	e.scrubMu.Lock()
	defer e.scrubMu.Unlock()
	return fault, e.scrubRuns, append([]string(nil), e.scrubCorrupt...)
}

// scrubLoop is the background scrub driver (Options.ScrubInterval > 0).
// Scrub I/O contends with the foreground only for read bandwidth on files
// the engine never touches again, so no pacing beyond the interval is
// needed at this scale.
func (e *Engine) scrubLoop() {
	defer close(e.scrubDone)
	t := time.NewTicker(e.opts.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if _, err := e.Scrub(); err != nil {
				e.opts.Logf("disk: scrub pass aborted: %v", err)
			}
		case <-e.scrubStop:
			return
		}
	}
}
