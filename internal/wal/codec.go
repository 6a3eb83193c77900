package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// The binary codec serializes Entries for two purposes: as the Paxos value
// exchanged in accept/apply messages, and as the payload stored in the
// kvstore's log rows. The format is a compact length-prefixed layout built on
// encoding/binary's varints (stdlib only):
//
//	v1: magic(2) version(1) ntxns(uvarint) txn*
//	v2: magic(2) version(1) epoch(varint) master(str) ntxns(uvarint) txn*
//	v3: magic(2) version(1) epoch(varint) master(str) handoff(0|1)
//	    [phase(1) from(str) to(str) pversion(varint) ngroups(uvarint) group*]
//	    ntxns(uvarint) txn3*
//	txn: id readpos(varint) origin nreads(uvarint) read* nwrites(uvarint) (k v)*
//	txn3: id readpos(varint) origin flags(1) nreads(uvarint) read*
//	      nwrites(uvarint) (k v)*
//	str: len(uvarint) bytes
//
// A nil/empty entry encodes to the no-op entry. Version 2 adds the epoch
// fencing fields (DESIGN.md §11); an entry with no epoch and no claim still
// encodes as version 1, so unfenced entries — everything Basic and CP clients
// produce — are byte-identical with pre-fencing peers and persisted stores.
// Version 3 adds the migration fields (Entry.Handoff, Txn.Backfill;
// DESIGN.md §15) and is used only when one of them is set, so every entry a
// non-migrating workload produces still round-trips at its old version byte
// and all three versions decode.
//
// Allocation contract (DESIGN.md §9). Encode sizes its output exactly and
// allocates it once. DecodeString allocates no string: every string of the
// entry it returns is a substring of its input, so the only allocations are
// the Txns slice and each transaction's read set and write map. Decode is one
// copy of its input and then DecodeString, so the entry never aliases the
// caller's bytes — a pooled datagram buffer may be reused the moment Decode
// returns. Every element count is bounded by the bytes left to carry it, so
// a payload cannot make the decoder allocate more than what it sends pays for.

const (
	codecMagic   = 0x5743 // "WC"
	codecVersion = 1
	// codecVersionEpoch is the layout carrying Entry.Epoch and Entry.Master,
	// used only when either is set.
	codecVersionEpoch = 2
	// codecVersionMigrate is the layout carrying Entry.Handoff and the
	// per-transaction Backfill flag, used only when one of them is set.
	codecVersionMigrate = 3
	// txnFlagBackfill marks a migration backfill transaction in the v3
	// per-transaction flags byte.
	txnFlagBackfill = 0x01
	// maxStrLen caps decoded string lengths to defend against corrupt or
	// hostile payloads arriving over the UDP transport.
	maxStrLen = 1 << 20
	// maxCount caps decoded element counts.
	maxCount = 1 << 16
)

// The fewest bytes one element of each list can be encoded in: a count that
// claims more elements than the bytes left could carry is corrupt, and is
// refused before anything is sized by it.
const (
	minTxnBytes   = 5 // id, readpos, origin, nreads, nwrites: one byte each
	minReadBytes  = 1 // an empty key
	minWriteBytes = 2 // an empty key and an empty value
	minGroupBytes = 1 // an empty group name
)

// ErrCorrupt is returned by Decode for malformed payloads.
var ErrCorrupt = errors.New("wal: corrupt entry encoding")

// needsMigrate reports whether e uses any v3-only field.
func needsMigrate(e Entry) bool {
	if e.Handoff != nil {
		return true
	}
	for _, t := range e.Txns {
		if t.Backfill {
			return true
		}
	}
	return false
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// varintLen is the length of binary.AppendVarint's zig-zag encoding of x.
func varintLen(x int64) int {
	ux := uint64(x) << 1
	if x < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

func strLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// encodedLen is the exact length of e's encoding at the given layout.
func encodedLen(e Entry, ver byte) int {
	n := 3 // magic, version
	if ver >= codecVersionEpoch {
		n += varintLen(e.Epoch) + strLen(e.Master)
	}
	if ver >= codecVersionMigrate {
		n++ // handoff flag
		if h := e.Handoff; h != nil {
			n += 1 + strLen(h.From) + strLen(h.To) + varintLen(h.Version) + uvarintLen(uint64(len(h.Groups)))
			for _, g := range h.Groups {
				n += strLen(g)
			}
		}
	}
	n += uvarintLen(uint64(len(e.Txns)))
	for _, t := range e.Txns {
		n += strLen(t.ID) + varintLen(t.ReadPos) + strLen(t.Origin)
		if ver >= codecVersionMigrate {
			n++ // flags
		}
		n += uvarintLen(uint64(len(t.ReadSet)))
		for _, k := range t.ReadSet {
			n += strLen(k)
		}
		n += uvarintLen(uint64(len(t.Writes)))
		for k, v := range t.Writes {
			n += strLen(k) + strLen(v)
		}
	}
	return n
}

// Encode serializes e to the compact binary format, in one allocation.
func Encode(e Entry) []byte {
	var ver byte = codecVersion
	switch {
	case needsMigrate(e):
		ver = codecVersionMigrate
	case e.Epoch != 0 || e.Master != "":
		ver = codecVersionEpoch
	}
	b := make([]byte, 0, encodedLen(e, ver))
	b = binary.BigEndian.AppendUint16(b, codecMagic)
	b = append(b, ver)
	if ver >= codecVersionEpoch {
		b = binary.AppendVarint(b, e.Epoch)
		b = appendString(b, e.Master)
	}
	if ver >= codecVersionMigrate {
		if h := e.Handoff; h != nil {
			b = append(b, 1, byte(h.Phase))
			b = appendString(b, h.From)
			b = appendString(b, h.To)
			b = binary.AppendVarint(b, h.Version)
			b = binary.AppendUvarint(b, uint64(len(h.Groups)))
			for _, g := range h.Groups {
				b = appendString(b, g)
			}
		} else {
			b = append(b, 0)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(e.Txns)))
	for _, t := range e.Txns {
		b = appendString(b, t.ID)
		b = binary.AppendVarint(b, t.ReadPos)
		b = appendString(b, t.Origin)
		if ver >= codecVersionMigrate {
			var flags byte
			if t.Backfill {
				flags |= txnFlagBackfill
			}
			b = append(b, flags)
		}
		b = binary.AppendUvarint(b, uint64(len(t.ReadSet)))
		for _, k := range t.ReadSet {
			b = appendString(b, k)
		}
		b = binary.AppendUvarint(b, uint64(len(t.Writes)))
		// Deterministic output: write keys in sorted order, sorted on the
		// stack — write sets rarely hold more than a handful of keys.
		var stack [16]string
		keys := stack[:0]
		for k := range t.Writes {
			keys = append(keys, k)
		}
		sortStrings(keys)
		for _, k := range keys {
			b = appendString(b, k)
			b = appendString(b, t.Writes[k])
		}
	}
	return b
}

// sortStrings is a tiny insertion sort to avoid importing sort in the hot
// encode path for the typically 1–10 element write sets.
func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// reader consumes an encoded entry from the front of s.
type reader struct{ s string }

func (r *reader) byte(what string) (byte, error) {
	if r.s == "" {
		return 0, fmt.Errorf("%w: short %s", ErrCorrupt, what)
	}
	c := r.s[0]
	r.s = r.s[1:]
	return c, nil
}

// uvarint reads one uvarint with binary.Uvarint's semantics: at most
// binary.MaxVarintLen64 bytes, no overflow past 64 bits.
func (r *reader) uvarint() (uint64, error) {
	var x uint64
	var shift uint
	for i := 0; i < len(r.s); i++ {
		if i == binary.MaxVarintLen64 {
			return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
		}
		c := r.s[i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
			}
			r.s = r.s[i+1:]
			return x | uint64(c)<<shift, nil
		}
		x |= uint64(c&0x7f) << shift
		shift += 7
	}
	return 0, fmt.Errorf("%w: truncated varint", ErrCorrupt)
}

func (r *reader) varint() (int64, error) {
	ux, err := r.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, err
}

// str returns the next length-prefixed string, sharing r's memory.
func (r *reader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > maxStrLen || n > uint64(len(r.s)) {
		return "", fmt.Errorf("%w: string length %d", ErrCorrupt, n)
	}
	s := r.s[:n]
	r.s = r.s[n:]
	return s, nil
}

// count reads an element count of a list whose elements take at least min
// bytes each: it may not exceed maxCount, nor what the bytes left can carry.
func (r *reader) count(what string, min int) (int, error) {
	n, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if n > maxCount || n > uint64(len(r.s)/min) {
		return 0, fmt.Errorf("%w: %s %d", ErrCorrupt, what, n)
	}
	return int(n), nil
}

// Decode parses a payload produced by Encode. The entry is built over one
// copy of data: data is not retained.
func Decode(data []byte) (Entry, error) {
	return DecodeString(string(data))
}

// DecodeString parses an encoded entry held in a string. Every string of the
// returned entry is a substring of s.
func DecodeString(s string) (Entry, error) {
	r := reader{s: s}
	if len(r.s) < 2 {
		return Entry{}, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if magic := uint16(r.s[0])<<8 | uint16(r.s[1]); magic != codecMagic {
		return Entry{}, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	r.s = r.s[2:]
	ver, err := r.byte("version")
	if err != nil || ver < codecVersion || ver > codecVersionMigrate {
		return Entry{}, fmt.Errorf("%w: bad version", ErrCorrupt)
	}
	var e Entry
	if ver >= codecVersionEpoch {
		if e.Epoch, err = r.varint(); err != nil {
			return Entry{}, err
		}
		if e.Master, err = r.str(); err != nil {
			return Entry{}, err
		}
	}
	if ver >= codecVersionMigrate {
		if e.Handoff, err = r.handoff(); err != nil {
			return Entry{}, err
		}
	}
	ntxns, err := r.count("txn count", minTxnBytes)
	if err != nil {
		return Entry{}, err
	}
	e.Txns = make([]Txn, ntxns)
	for i := range e.Txns {
		if err := r.txn(&e.Txns[i], ver); err != nil {
			return Entry{}, err
		}
	}
	if len(r.s) != 0 {
		return Entry{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.s))
	}
	return e, nil
}

// handoff reads the v3 handoff flag and, when it is set, the handoff.
func (r *reader) handoff() (*Handoff, error) {
	flag, err := r.byte("handoff")
	if err != nil || flag > 1 {
		return nil, fmt.Errorf("%w: bad handoff flag", ErrCorrupt)
	}
	if flag == 0 {
		return nil, nil
	}
	h := &Handoff{}
	phase, err := r.byte("handoff")
	if err != nil {
		return nil, err
	}
	h.Phase = HandoffPhase(phase)
	if h.From, err = r.str(); err != nil {
		return nil, err
	}
	if h.To, err = r.str(); err != nil {
		return nil, err
	}
	if h.Version, err = r.varint(); err != nil {
		return nil, err
	}
	ng, err := r.count("handoff group count", minGroupBytes)
	if err != nil {
		return nil, err
	}
	h.Groups = make([]string, ng)
	for i := range h.Groups {
		if h.Groups[i], err = r.str(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// txn reads one transaction of a ver-layout entry into t.
func (r *reader) txn(t *Txn, ver byte) error {
	var err error
	if t.ID, err = r.str(); err != nil {
		return err
	}
	if t.ReadPos, err = r.varint(); err != nil {
		return err
	}
	if t.Origin, err = r.str(); err != nil {
		return err
	}
	if ver >= codecVersionMigrate {
		flags, err := r.byte("txn flags")
		if err != nil {
			return err
		}
		t.Backfill = flags&txnFlagBackfill != 0
	}
	nr, err := r.count("read set size", minReadBytes)
	if err != nil {
		return err
	}
	t.ReadSet = make([]string, nr)
	for i := range t.ReadSet {
		if t.ReadSet[i], err = r.str(); err != nil {
			return err
		}
	}
	nw, err := r.count("write set size", minWriteBytes)
	if err != nil || nw == 0 {
		return err
	}
	t.Writes = make(map[string]string, nw)
	for ; nw > 0; nw-- {
		k, err := r.str()
		if err != nil {
			return err
		}
		v, err := r.str()
		if err != nil {
			return err
		}
		t.Writes[k] = v
	}
	return nil
}
