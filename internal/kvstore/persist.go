package kvstore

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Persistence: a snapshot of a Store is a stream of the records its WAL
// writes (record.go), so it is loaded by replaying it and verified by reading
// it:
//
//	snapshotMagic | one OpWrite record per stored version | OpEnd record
//
// Rows come in key order, a row's versions ascending, so equal stores save to
// equal bytes however they were built — every row with its full history, the
// Paxos acceptor rows included (an acceptor must never forget a promise or a
// vote across restarts). OpEnd counts the records before it and nothing may
// follow it, so a stream cut at any byte, a record boundary included, does not
// load; every record carries its checksum and the magic is compared whole, so
// neither does one with a flipped bit.

// snapshotMagic opens every snapshot stream. A file that starts otherwise —
// the gob image of an earlier build — is not read at all.
const snapshotMagic = "paxoscp-snapshot-2\n"

// Save writes a point-in-time snapshot of the whole store. It holds a page of
// keys and one record at a time, never a copy of the store;
// concurrent writers are not blocked, and each row is captured atomically.
func (s *Store) Save(w io.Writer) error {
	if s.isClosed() {
		return ErrClosed
	}
	// A bufio.Writer's first error sticks: every later write fails with it,
	// and so does Flush, which is where it is checked.
	bw := bufio.NewWriter(w)
	bw.WriteString(snapshotMagic)
	var (
		rec      []byte
		keys     []string
		versions []version
		count    int64
	)
	for after, more := "", true; more; {
		keys = s.idx.page(keys[:0], "", after, walkPage)
		more = len(keys) == walkPage
		for _, k := range keys {
			after = k
			r := s.lockLive(k)
			if r == nil {
				continue // deleted since the page was read
			}
			versions = append(versions[:0], r.versions...)
			r.mu.Unlock()
			for _, v := range versions {
				rec = AppendRecord(rec[:0], Mutation{Op: OpWrite, Key: k, TS: v.ts, Value: v.val})
				bw.Write(rec)
				count++
			}
		}
	}
	bw.Write(AppendRecord(rec[:0], Mutation{Op: OpEnd, TS: count}))
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("kvstore: save: %w", err)
	}
	return nil
}

// Load reads a snapshot produced by Save into a fresh Store: ApplyMutation
// per record, exactly as the disk engine replays a WAL segment.
func Load(r io.Reader) (*Store, error) {
	s := New()
	if _, err := readSnapshot(r, s.ApplyMutation); err != nil {
		return nil, fmt.Errorf("kvstore: load: %w", err)
	}
	return s, nil
}

// VerifySnapshot checks a snapshot stream's framing — the magic, every
// record's checksum, the trailer's count, nothing after it — and counts its
// records. It builds no store and holds one record at a time, so the disk
// engine's scrub can run it beside a serving replica.
func VerifySnapshot(r io.Reader) (records int, err error) {
	return readSnapshot(r, nil)
}

// readSnapshot streams a snapshot's records through apply and counts them.
// With a nil apply, rows are checked by checksum only, not decoded.
func readSnapshot(r io.Reader, apply func(Mutation) error) (int, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != snapshotMagic {
		return 0, errors.New("no snapshot header: the file was written by an older build, or is damaged")
	}
	var buf []byte
	for n := 0; ; n++ {
		payload, err := readFrame(br, buf)
		if err == io.EOF {
			return n, fmt.Errorf("cut after record %d: no trailer", n)
		}
		if err != nil {
			return n, fmt.Errorf("record %d: %w", n, err)
		}
		buf = payload
		end := Op(payload[0]) == OpEnd
		if apply == nil && !end {
			continue
		}
		m, err := decodePayload(payload)
		if err != nil {
			return n, fmt.Errorf("record %d: %w", n, err)
		}
		if !end {
			if err := apply(m); err != nil {
				return n, fmt.Errorf("record %d: %w", n, err)
			}
			continue
		}
		if m.Key != "" || m.TS != int64(n) {
			return n, fmt.Errorf("trailer counts %d records, read %d", m.TS, n)
		}
		if _, err := br.ReadByte(); err != io.EOF {
			return n, errors.New("bytes after the trailer")
		}
		return n, nil
	}
}
