package kvstore

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Persistence: a Store serializes to a gob snapshot so a datacenter daemon
// (cmd/txkvd) can stop and restart without losing its replica. The on-disk
// format carries every row with its full version history, including the
// Paxos acceptor state rows — an acceptor must never forget a promise or a
// vote across restarts, or it could enable conflicting decisions.

// persistMagic guards against loading unrelated gob streams.
const persistMagic = "paxoscp-kvstore-v1"

// Version is one timestamped version of a row in the snapshot format, which
// keeps the contents as a map: the format predates the packed in-memory form
// and is unchanged by it, so Save unpacks and Load packs.
type Version struct {
	Timestamp int64
	Value     Value
}

type persistedRow struct {
	Key      string
	Versions []Version
}

type persistedStore struct {
	Magic string
	Rows  []persistedRow
}

// Save writes a point-in-time snapshot of the whole store. Concurrent
// writers are not blocked for the duration; each row is captured atomically.
func (s *Store) Save(w io.Writer) error {
	if s.isClosed() {
		return ErrClosed
	}
	out := persistedStore{Magic: persistMagic}
	// The walk names the rows; each row's whole history is then captured
	// under its lock.
	err := s.WalkPrefix("", Latest, func(sr ScanRow) {
		r := s.getRow(sr.Key, false)
		if r == nil {
			return // deleted since its page was gathered
		}
		r.mu.Lock()
		versions := make([]Version, len(r.versions))
		for i, v := range r.versions {
			versions[i] = Version{Timestamp: v.ts, Value: v.val.Unpack()}
		}
		r.mu.Unlock()
		if len(versions) > 0 {
			out.Rows = append(out.Rows, persistedRow{Key: sr.Key, Versions: versions})
		}
	})
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(out); err != nil {
		return fmt.Errorf("kvstore: save: %w", err)
	}
	return bw.Flush()
}

// Load reads a snapshot produced by Save into a fresh Store.
func Load(r io.Reader) (*Store, error) {
	var in persistedStore
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&in); err != nil {
		return nil, fmt.Errorf("kvstore: load: %w", err)
	}
	if in.Magic != persistMagic {
		return nil, fmt.Errorf("kvstore: load: not a kvstore snapshot")
	}
	s := New()
	for _, pr := range in.Rows {
		row := s.getRow(pr.Key, true)
		for _, v := range pr.Versions {
			row.versions = append(row.versions, version{ts: v.Timestamp, val: Pack(v.Value)})
		}
	}
	return s, nil
}

// SaveFile atomically writes the snapshot to path (temp file + rename).
func (s *Store) SaveFile(path string) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".kvstore-*")
	if err != nil {
		return fmt.Errorf("kvstore: save file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if err := s.Save(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("kvstore: sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("kvstore: close: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("kvstore: rename: %w", err)
	}
	return nil
}

// LoadFile loads a snapshot from path; a missing file yields an empty store
// (first boot).
func LoadFile(path string) (*Store, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return New(), nil
	}
	if err != nil {
		return nil, fmt.Errorf("kvstore: load file: %w", err)
	}
	defer f.Close()
	return Load(f)
}
