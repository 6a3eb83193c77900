package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"iter"
	"slices"
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
// allocates it once, and so does Splice, which builds an entry from the
// bytes of transactions a Reader read. A Reader (NewReader, Check, OneTxn,
// Contains, WritesAny, Invalidates) walks an encoded entry and allocates
// nothing: every string it returns is a substring of its input, and it
// checks every bound Decode does — DecodeString is a Reader's walk that
// builds what it reads, so there is one parser. A decided or proposed entry
// is asked everything from its bytes: a replica applies it, the master
// admits against it and a client learns its outcome through a Reader. The
// master decodes no submit either: OneTxn reads its one transaction, and
// the entry that carries it is spliced from its bytes. Only CP's
// combination search and tooling decode an entry. DecodeString allocates no
// string, so its only allocations are the Txns slice and each transaction's
// read set and write map. Decode is one copy of its input and then
// DecodeString, so the entry never aliases the caller's bytes — a pooled
// datagram buffer may be reused the moment Decode returns. Every element
// count is bounded by the bytes left to carry it, so a payload cannot make
// the decoder allocate more than what it sends pays for.
//
// Canonical bytes. Every varint is read only in its shortest form, the one
// Encode writes, and OneTxn takes a transaction only with its write keys in
// strictly increasing order, as Encode writes a write map's. So a spliced
// entry is byte for byte the one Encode writes for the entry of its
// transactions decoded: the bytes a master decides are always Encode's.

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

// layout is the version Encode picks for an entry: the migration layout
// when it uses a v3 field, the fencing layout when it carries an epoch or a
// claim, else the first.
func layout(migrate bool, epoch int64, master string) byte {
	switch {
	case migrate:
		return codecVersionMigrate
	case epoch != 0 || master != "":
		return codecVersionEpoch
	}
	return codecVersion
}

// headerLen is the exact length of e's header at the given layout, through
// a count of ntxns transactions.
func headerLen(e Entry, ver byte, ntxns int) int {
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
	return n + uvarintLen(uint64(ntxns))
}

// appendHeader appends e's header at the given layout, through a count of
// ntxns transactions: headerLen bytes.
func appendHeader(b []byte, e Entry, ver byte, ntxns int) []byte {
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
	return binary.AppendUvarint(b, uint64(ntxns))
}

// txnFlags is the v3 flags byte of a transaction.
func txnFlags(backfill bool) byte {
	if backfill {
		return txnFlagBackfill
	}
	return 0
}

// txnLen is the exact length of t's encoding at the given layout.
func txnLen(t Txn, ver byte) int {
	n := strLen(t.ID) + varintLen(t.ReadPos) + strLen(t.Origin)
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
	return n
}

// MaxHeaderLen bounds what an encoded transaction entry takes besides its
// transactions: magic, version, epoch, an empty master, the handoff flag and
// a transaction count up to maxCount. An entry of transactions ts encodes in
// at most MaxHeaderLen plus the sum of their TxnView.Size bytes.
const MaxHeaderLen = 2 + 1 + binary.MaxVarintLen64 + 1 + 1 + 3

// Encode serializes e to the compact binary format, in one allocation.
func Encode(e Entry) []byte {
	ver := layout(needsMigrate(e), e.Epoch, e.Master)
	n := headerLen(e, ver, len(e.Txns))
	for _, t := range e.Txns {
		n += txnLen(t, ver)
	}
	b := appendHeader(make([]byte, 0, n), e, ver, len(e.Txns))
	for _, t := range e.Txns {
		b = appendString(b, t.ID)
		b = binary.AppendVarint(b, t.ReadPos)
		b = appendString(b, t.Origin)
		if ver >= codecVersionMigrate {
			b = append(b, txnFlags(t.Backfill))
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

// Splice builds the entry of transactions txns, stamped with epoch, or the
// handoff entry h (txns empty), in one allocation: the header Encode writes,
// then each transaction's bytes as a Reader read them, with the flags byte
// the layout wants put in or left out. The layout is the one Encode picks,
// so for transactions read from entries Encode wrote — OneTxn reads a
// submit so — Splice writes Encode's bytes for the entry of their decoded
// transactions (FuzzSplice).
func Splice(epoch int64, h *Handoff, txns []TxnView) []byte {
	head := Entry{Epoch: epoch, Handoff: h}
	migrate, n := h != nil, 0
	for _, t := range txns {
		migrate = migrate || t.Backfill
		n += len(t.head) + len(t.body)
	}
	ver := layout(migrate, epoch, "")
	if ver >= codecVersionMigrate {
		n += len(txns) // flags
	}
	b := appendHeader(make([]byte, 0, headerLen(head, ver, len(txns))+n), head, ver, len(txns))
	for _, t := range txns {
		b = append(b, t.head...)
		if ver >= codecVersionMigrate {
			b = append(b, txnFlags(t.Backfill))
		}
		b = append(b, t.body...)
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

// uvarint reads one uvarint with binary.Uvarint's semantics — at most
// binary.MaxVarintLen64 bytes, no overflow past 64 bits — in the shortest
// form, the one binary.AppendUvarint writes: a value padded with a zero
// last group is refused, so every varint of an accepted entry is the one
// Encode writes.
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
			if c == 0 && i > 0 {
				return 0, fmt.Errorf("%w: overlong varint", ErrCorrupt)
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

// DecodeString parses an encoded entry held in a string: a Reader's walk,
// building what it reads. Every string of the returned entry is a substring
// of s.
func DecodeString(s string) (Entry, error) {
	r, err := NewReader(s)
	if err != nil {
		return Entry{}, err
	}
	e := Entry{Epoch: r.Epoch, Master: r.Master, Handoff: r.Handoff(), Txns: make([]Txn, r.left)}
	var t TxnView
	for i := range e.Txns {
		if err := r.next(&t, &e.Txns[i]); err != nil {
			return Entry{}, err
		}
	}
	return e, nil
}

// Check reports whether s is an entry Decode would accept, allocating
// nothing: a Reader's walk to the end.
func Check(s string) error {
	r, err := NewReader(s)
	for err == nil && r.More() {
		_, err = r.Next()
	}
	return err
}

// OneTxn reads s as a submit carries its transaction to the master: an
// entry holding exactly one transaction and no handoff, its write keys in
// strictly increasing order — what Encode writes for one transaction, whose
// write set is a map. It returns the transaction as a Reader read it, a view
// of s, allocating nothing; Splice writes it back as Encode would. The
// header's fencing fields are the sender's, not the transaction's, and are
// not kept.
func OneTxn(s string) (TxnView, error) {
	r, err := NewReader(s)
	if err != nil {
		return TxnView{}, err
	}
	if r.IsHandoff() || r.Len() != 1 {
		return TxnView{}, fmt.Errorf("%w: %d transactions (handoff %v), want one", ErrCorrupt, r.Len(), r.IsHandoff())
	}
	t, err := r.Next()
	if err == nil && !t.sortedWrites() {
		err = fmt.Errorf("%w: write keys not in increasing order", ErrCorrupt)
	}
	return t, err
}

// Contains is Entry.Contains asked of the encoded entry s: whether a
// transaction of it has ID id. A Reader walks all of s, allocating nothing;
// bytes Check refuses hold no transaction.
func Contains(s, id string) bool {
	r, err := NewReader(s)
	found := false
	for err == nil && r.More() {
		var t TxnView
		t, err = r.Next()
		found = found || t.ID == id
	}
	return found && err == nil
}

// WritesAny is Entry.WritesAny asked of the encoded entry s: whether a
// transaction of it writes any of keys. A Reader walks all of s, allocating
// nothing; bytes Check refuses write every key — a conflict, the answer that
// commits nothing.
func WritesAny(s string, keys []string) bool {
	return writesAny(s, func(k string) bool { return slices.Contains(keys, k) })
}

// Invalidates is WritesAny asked for the keys t reads: whether a transaction
// of the encoded entry s writes a key t read, so that t, read below s, may
// not commit above it.
func Invalidates(s string, t TxnView) bool { return writesAny(s, t.reads.contains) }

// writesAny walks all of the encoded entry s and reports whether a
// transaction of it writes a key read holds, or s is bytes Check refuses.
func writesAny(s string, read func(string) bool) bool {
	r, err := NewReader(s)
	hit := false
	for err == nil && r.More() {
		var t TxnView
		if t, err = r.Next(); err == nil && !hit {
			hit = t.writesAny(read)
		}
	}
	return hit || err != nil
}

// Reader walks an encoded entry without building it: the header's fields,
// then one transaction per Next, each checked as it is read — every bound
// Decode enforces is enforced here, DecodeString being a walk of a Reader —
// and nothing allocated. Every string it returns is a substring of its
// input. A walk that ends without an error has checked the whole entry.
type Reader struct {
	// Epoch and Master are the header's fencing fields (zero before v2).
	Epoch  int64
	Master string

	ver     byte
	handoff handoffView // valid when hasHand
	hasHand bool
	r       reader // the transactions not yet read
	left    int    // how many
}

// handoffView is a checked handoff record, its groups still encoded.
type handoffView struct {
	phase    HandoffPhase
	from, to string
	version  int64
	groups   Keys
}

// NewReader checks the header of the encoded entry s — magic, version,
// fencing fields, handoff record and transaction count — and returns a
// Reader positioned at the first transaction.
func NewReader(s string) (Reader, error) {
	r := Reader{r: reader{s: s}}
	if len(s) < 2 {
		return Reader{}, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if magic := uint16(s[0])<<8 | uint16(s[1]); magic != codecMagic {
		return Reader{}, fmt.Errorf("%w: bad magic %#x", ErrCorrupt, magic)
	}
	r.r.s = s[2:]
	var err error
	r.ver, err = r.r.byte("version")
	if err != nil || r.ver < codecVersion || r.ver > codecVersionMigrate {
		return Reader{}, fmt.Errorf("%w: bad version", ErrCorrupt)
	}
	if r.ver >= codecVersionEpoch {
		if r.Epoch, err = r.r.varint(); err != nil {
			return Reader{}, err
		}
		if r.Master, err = r.r.str(); err != nil {
			return Reader{}, err
		}
	}
	if r.ver >= codecVersionMigrate {
		if r.hasHand, err = r.r.handoff(&r.handoff); err != nil {
			return Reader{}, err
		}
	}
	if r.left, err = r.r.count("txn count", minTxnBytes); err != nil {
		return Reader{}, err
	}
	if err := r.end(); err != nil {
		return Reader{}, err
	}
	return r, nil
}

// More reports whether a transaction is left to read.
func (r *Reader) More() bool { return r.left > 0 }

// Len is the number of transactions not yet read: before the first Next,
// how many the entry holds.
func (r *Reader) Len() int { return r.left }

// IsHandoff reports whether the entry is a migration handoff entry.
func (r *Reader) IsHandoff() bool { return r.hasHand }

// Handoff builds the entry's handoff record, nil when it has none.
func (r *Reader) Handoff() *Handoff {
	if !r.hasHand {
		return nil
	}
	v := r.handoff
	h := &Handoff{Phase: v.phase, From: v.from, To: v.to, Version: v.version, Groups: make([]string, v.groups.Len())}
	for i := range h.Groups {
		h.Groups[i], _ = v.groups.Next()
	}
	return h
}

// Next reads and checks the next transaction. After the last one it checks
// that nothing trails the entry.
func (r *Reader) Next() (TxnView, error) {
	var t TxnView
	err := r.next(&t, nil)
	return t, err
}

// next is Next into t, building the transaction into build when it is not
// nil — DecodeString's one walk.
func (r *Reader) next(t *TxnView, build *Txn) error {
	if r.left == 0 {
		return fmt.Errorf("%w: no transaction left", ErrCorrupt)
	}
	if err := r.r.txn(t, r.ver, build); err != nil {
		r.left = 0
		return err
	}
	r.left--
	return r.end()
}

// end refuses bytes trailing the last transaction.
func (r *Reader) end() error {
	if r.left == 0 && len(r.r.s) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(r.r.s))
	}
	return nil
}

// TxnView is one transaction of an encoded entry as a Reader read it: its
// fields, and its read keys and writes still encoded, walked by Reads and
// Writes. It keeps its bytes, for Splice to write into another entry.
type TxnView struct {
	ID, Origin string
	ReadPos    int64
	Backfill   bool
	reads      Keys
	writes     Writes
	// head and body are the transaction's bytes before and after the v3
	// flags byte, which they leave out: ID, read position and origin, then
	// read keys and writes.
	head, body string
}

// Size is the most bytes t takes in an encoded entry: its length at the
// migration layout, which spends one flags byte more than the older ones.
func (t TxnView) Size() int { return len(t.head) + 1 + len(t.body) }

// Invalidates reports whether t writes a key r reads: whether r, read
// before t, conflicts with it.
func (t TxnView) Invalidates(r TxnView) bool { return t.writesAny(r.reads.contains) }

// writesAny reports whether t writes a key read holds.
func (t TxnView) writesAny(read func(string) bool) bool {
	for k := range t.WriteKeys() {
		if read(k) {
			return true
		}
	}
	return false
}

// sortedWrites reports whether t's write keys are in strictly increasing
// order, as Encode writes a write map's.
func (t TxnView) sortedWrites() bool {
	w := t.writes
	prev, _, ok := w.Next()
	for ok {
		var k string
		if k, _, ok = w.Next(); ok && k <= prev {
			return false
		}
		prev = k
	}
	return true
}

// Reads returns a walk of the transaction's read keys.
func (t TxnView) Reads() Keys { return t.reads }

// Writes returns a walk of the transaction's writes, in the order they were
// encoded: increasing key order, as Encode writes them.
func (t TxnView) Writes() Writes { return t.writes }

// WriteKeys returns the transaction's written keys, in Writes' order.
func (t TxnView) WriteKeys() iter.Seq[string] {
	return func(yield func(string) bool) {
		for w := t.writes; ; {
			k, _, ok := w.Next()
			if !ok || !yield(k) {
				return
			}
		}
	}
}

// Keys walks an encoded list of strings a Reader has checked.
type Keys struct {
	r reader
	n int
}

// Len is the number of keys not yet walked.
func (k Keys) Len() int { return k.n }

// Next returns the next key, or false at the end.
func (k *Keys) Next() (string, bool) {
	if k.n == 0 {
		return "", false
	}
	k.n--
	s, _ := k.r.str()
	return s, true
}

// contains reports whether key is among the keys k has not walked.
func (k Keys) contains(key string) bool {
	for {
		s, ok := k.Next()
		if !ok || s == key {
			return ok
		}
	}
}

// Writes walks the encoded writes of a transaction a Reader has checked:
// key-value pairs in the order they were encoded. Encode writes them in
// increasing key order; of bytes repeating a key, the last pair wins, as in
// the write map DecodeString builds.
type Writes struct {
	r reader
	n int
}

// Len is the number of writes not yet walked.
func (w Writes) Len() int { return w.n }

// Next returns the next write, or false at the end.
func (w *Writes) Next() (key, val string, ok bool) {
	if w.n == 0 {
		return "", "", false
	}
	w.n--
	key, _ = w.r.str()
	val, _ = w.r.str()
	return key, val, true
}

// handoff reads the v3 handoff flag and, when it is set, the handoff into h.
func (r *reader) handoff(h *handoffView) (bool, error) {
	flag, err := r.byte("handoff")
	if err != nil || flag > 1 {
		return false, fmt.Errorf("%w: bad handoff flag", ErrCorrupt)
	}
	if flag == 0 {
		return false, nil
	}
	phase, err := r.byte("handoff")
	if err != nil {
		return false, err
	}
	h.phase = HandoffPhase(phase)
	if h.from, err = r.str(); err != nil {
		return false, err
	}
	if h.to, err = r.str(); err != nil {
		return false, err
	}
	if h.version, err = r.varint(); err != nil {
		return false, err
	}
	h.groups, err = r.keys("handoff group count", minGroupBytes)
	return err == nil, err
}

// keys reads a counted list of strings whose elements take at least min
// bytes each, checking every one, and returns a walk of it (a handoff's
// groups).
func (r *reader) keys(what string, min int) (Keys, error) {
	n, err := r.count(what, min)
	if err != nil {
		return Keys{}, err
	}
	k := Keys{r: *r, n: n}
	for ; n > 0; n-- {
		if _, err := r.str(); err != nil {
			return Keys{}, err
		}
	}
	return k, nil
}

// txn reads and checks one transaction of a ver-layout entry into t and,
// when build is not nil, builds it there: its fields, a read set slice and,
// when it writes, a write map (a repeated key's last value wins).
func (r *reader) txn(t *TxnView, ver byte, build *Txn) error {
	start := r.s
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
	t.head = start[:len(start)-len(r.s)]
	if ver >= codecVersionMigrate {
		flags, err := r.byte("txn flags")
		if err != nil {
			return err
		}
		t.Backfill = flags&txnFlagBackfill != 0
	}
	body := r.s
	nr, err := r.count("read set size", minReadBytes)
	if err != nil {
		return err
	}
	t.reads = Keys{r: *r, n: nr}
	if build != nil {
		build.ID, build.Origin, build.ReadPos, build.Backfill = t.ID, t.Origin, t.ReadPos, t.Backfill
		build.ReadSet = make([]string, nr)
	}
	for i := 0; i < nr; i++ {
		k, err := r.str()
		if err != nil {
			return err
		}
		if build != nil {
			build.ReadSet[i] = k
		}
	}
	nw, err := r.count("write set size", minWriteBytes)
	if err != nil {
		return err
	}
	t.writes = Writes{r: *r, n: nw}
	if build != nil && nw > 0 {
		build.Writes = make(map[string]string, nw)
	}
	for ; nw > 0; nw-- {
		k, err := r.str()
		if err != nil {
			return err
		}
		v, err := r.str()
		if err != nil {
			return err
		}
		if build != nil {
			build.Writes[k] = v
		}
	}
	t.body = body[:len(body)-len(r.s)]
	return nil
}
