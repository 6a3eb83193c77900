package kvstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The record is the one serialized form of a Mutation (DESIGN.md §14): the
// disk engine's WAL segments, a snapshot stream (persist.go) and a page of
// state transfer between replicas (core) are all sequences of it. Each is
//
//	uvarint(len(payload)) | crc32-IEEE(payload) little-endian | payload
//
// and the payload is
//
//	op(1 byte) | uvarint(len(key)) key | per-op fields
//
// with per-op fields:
//
//	OpWrite:   varint(ts) | uvarint(nattrs) | nattrs × (uvarint-len attr, uvarint-len value)
//	OpDelete:  (nothing)
//	OpGC:      varint(keepFrom)
//	OpReplace: as OpWrite
//	OpEnd:     varint(count)
//
// The attribute block — everything after the timestamp — is the store's own
// in-memory form of a version (Packed, attributes strictly ascending), so
// encoding copies it and decoding validates it; no map is built either way.
// The op byte values are the Op constants, which are frozen (renumbering
// them would corrupt every existing log).

// maxRecordBytes bounds a single record. A length prefix beyond it is treated
// as a torn record instead of an attempt to allocate garbage gigabytes.
const maxRecordBytes = 64 << 20

// AppendRecord encodes m as one record appended to dst.
func AppendRecord(dst []byte, m Mutation) []byte {
	var payload [64]byte // stack seed; real records usually fit
	p := payload[:0]
	p = append(p, byte(m.Op))
	p = binary.AppendUvarint(p, uint64(len(m.Key)))
	p = append(p, m.Key...)
	switch m.Op {
	case OpWrite, OpReplace:
		p = binary.AppendVarint(p, m.TS)
		p = append(p, m.Value.Block()...)
	case OpDelete:
		// key only
	case OpGC, OpEnd:
		p = binary.AppendVarint(p, m.TS)
	}
	dst = binary.AppendUvarint(dst, uint64(len(p)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(p))
	return append(dst, p...)
}

// ErrTorn marks a record that ends mid-air: short length prefix, short body,
// or checksum mismatch. At the tail of the WAL segment active at a crash it
// is the expected power-loss signature, which recovery truncates away;
// anywhere else — a sealed segment, a snapshot, a transfer page — corruption.
var ErrTorn = errors.New("torn record")

// ReadRecord reads one record from r. It returns ErrTorn (possibly wrapped)
// for any malformed framing, io.EOF exactly at a record boundary, and the
// decoded mutation otherwise.
func ReadRecord(r *bufio.Reader) (Mutation, error) {
	payload, err := readFrame(r, nil)
	if err != nil {
		return Mutation{}, err
	}
	// The checksum matched, so a failure here is not a tear: the writer
	// produced bytes the reader cannot parse. Surface it as corruption always.
	return decodePayload(payload)
}

// readFrame reads one record's framing and returns its checked payload, read
// into buf when it fits: a loop done with each payload before the next hands
// the last one back and allocates nothing per record.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err == io.EOF {
		return nil, io.EOF // clean boundary
	}
	if err != nil {
		return nil, fmt.Errorf("%w: length prefix: %v", ErrTorn, err)
	}
	if n == 0 || n > maxRecordBytes {
		return nil, fmt.Errorf("%w: implausible record length %d", ErrTorn, n)
	}
	// Peeked: a local buffer handed to Read escapes — an allocation per record.
	crcBytes, err := r.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrTorn, err)
	}
	crc := binary.LittleEndian.Uint32(crcBytes)
	r.Discard(4)
	payload, err := readBody(r, int(n), buf)
	if err != nil {
		return nil, fmt.Errorf("%w: body: %v", ErrTorn, err)
	}
	if crc32.ChecksumIEEE(payload) != crc {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrTorn)
	}
	return payload, nil
}

// bodyStep is the most readBody allocates before any of the body has
// arrived. Ordinary records are far smaller and still cost one exact
// allocation.
const bodyStep = 64 << 10

// readBody reads a record's n-byte body, into buf when it has the room. A
// fresh buffer is sized by the bytes that have arrived, not by what the
// length prefix claims: bodyStep at most to begin with, then no more than
// doubling what is already filled. A corrupt prefix under maxRecordBytes in a
// short tail therefore costs bodyStep, not the 64 MB it asks for.
func readBody(r io.Reader, n int, buf []byte) ([]byte, error) {
	if cap(buf) >= n {
		_, err := io.ReadFull(r, buf[:n])
		return buf[:n], err
	}
	buf = make([]byte, min(n, bodyStep))
	for filled := 0; ; {
		m, err := io.ReadFull(r, buf[filled:])
		if err != nil {
			return nil, err
		}
		if filled += m; filled == n {
			return buf, nil
		}
		buf = append(buf, make([]byte, min(n-filled, filled))...)
	}
}

func decodePayload(p []byte) (Mutation, error) {
	var m Mutation
	if len(p) < 1 {
		return m, errors.New("kvstore: empty record payload")
	}
	m.Op = Op(p[0])
	p = p[1:]
	key, p, err := decodeString(p)
	if err != nil {
		return m, fmt.Errorf("kvstore: record key: %w", err)
	}
	m.Key = key
	switch m.Op {
	case OpWrite, OpReplace:
		ts, n := binary.Varint(p)
		if n <= 0 {
			return m, errors.New("kvstore: record ts")
		}
		m.TS = ts
		if m.Value, err = ParsePacked(p[n:]); err != nil {
			return m, fmt.Errorf("kvstore: record value: %w", err)
		}
	case OpDelete:
		// key only
	case OpGC, OpEnd:
		ts, n := binary.Varint(p)
		if n <= 0 {
			return m, errors.New("kvstore: record ts")
		}
		m.TS = ts
	default:
		return m, fmt.Errorf("kvstore: unknown record op %d", m.Op)
	}
	return m, nil
}

func decodeString(p []byte) (string, []byte, error) {
	n, w := binary.Uvarint(p)
	if w <= 0 || n > uint64(len(p)-w) {
		return "", p, errors.New("bad string length")
	}
	return string(p[w : w+int(n)]), p[w+int(n):], nil
}
