package network

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
)

// Binary wire codec for Message and the UDP transport's envelope. The
// format is a compact length-prefixed layout in the same style as
// wal/codec.go (see DESIGN.md §9):
//
//	envelope: wireVersion(1) flags(1) id(uvarint) from(str) message
//	message:  kind(1 | 0xFF+str) flags(1) group(str) pos(varint)
//	          ballot(varint) ts(varint) epoch(varint) key(str) value(str)
//	          err(str) payload(bytes) keys([]str) vals([]str) founds(bitmap)
//	str:      len(uvarint) bytes;  []str: count(uvarint) str*
//	bitmap:   count(uvarint) ceil(count/8) bytes, LSB first
//	flags:    (message) bit 0 OK, bit 1 Found, bit 2 Combined, bits 3–7 the
//	          Verdict — bits a peer older than the verdict sends zero
//	          (VerdictNone) and ignores, so the version byte did not change
//
// The codec is binary-only: the legacy JSON envelope and the pre-epoch 0xB1
// layout were retired once every deployed peer spoke 0xB2. Datagrams whose
// leading byte is not wireVersion are dropped.
//
// Decoding is allocation-free in steady state: a decoder holds reusable
// scratch (a bounded string intern table, a payload buffer, and Keys/Vals/
// Founds backing arrays) so the hot path recycles memory across datagrams.
// Decoded messages backed by a decoder are only valid until the decoder is
// reused; paths whose result outlives the call (response correlation,
// UnmarshalBinary) decode with fresh allocations instead.

const (
	// wireVersion is the leading byte of every binary envelope.
	wireVersion = 0xB2

	// wireMaxStr caps decoded string lengths; wireMaxCount caps element
	// counts. Both defend against corrupt or hostile datagrams.
	wireMaxStr   = 1 << 20
	wireMaxCount = 1 << 16
)

// ErrBadWire is returned when a binary datagram cannot be decoded.
var ErrBadWire = errors.New("network: corrupt binary message")

// kindTable fixes the on-wire byte for every known Kind. Order is part of
// the wire format: never reorder or remove entries, only append.
var kindTable = []Kind{
	KindPrepare, KindAccept, KindApply,
	KindReadPos, KindRead, KindReadMulti,
	KindClaimLeader, KindFetchLog, KindSubmit, KindSnapshot,
	KindStats, KindCompact,
	KindLastVote, KindStatus, KindValue,
	KindRangeSnapshot, KindMigrate,
	KindScan,
	KindBatch,
}

// kindOther marks a Kind outside kindTable, encoded as a string.
const kindOther = 0xFF

var kindCode = func() map[Kind]byte {
	m := make(map[Kind]byte, len(kindTable))
	for i, k := range kindTable {
		m[k] = byte(i)
	}
	return m
}()

// The flags byte: three bools, then the Verdict in the bits above them.
const (
	flagOK       = 1 << 0
	flagFound    = 1 << 1
	flagCombined = 1 << 2

	verdictShift = 3
)

// Bounds of the decoder's string intern table: strings longer than
// internMaxLen are never interned, and a table that reaches internMaxEntries
// is discarded and rebuilt, so hostile traffic cannot grow it unboundedly.
// Group names, keys and datacenter names all repeat heavily
// in steady state, which is what makes decode allocation-free.
const (
	internMaxLen     = 128
	internMaxEntries = 4096
)

// decoder holds the reusable scratch for one in-flight datagram decode. The
// UDP transport pools decoders: a request's decoder (and therefore every
// string, the Payload, and the Keys/Vals/Founds arrays of its Message) stays
// alive until the handler replies, then returns to the pool.
type decoder struct {
	interned map[string]string
	payload  []byte
	keys     []string
	vals     []string
	founds   []bool
	// view, when set, is the bytes being decoded as a string, of which the
	// reader's buf is a suffix: strings are its substrings (EachReply). A
	// string never aliases buf itself, which may be a read loop's stack
	// buffer (readLoop) that a leak through str would move to the heap.
	view string
}

// intern returns b as a string, reusing a previously allocated copy when the
// table holds one. The m[string(b)] lookup compiles to an allocation-free
// map probe, so repeated strings cost nothing after their first appearance.
func (d *decoder) intern(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if len(b) > internMaxLen {
		return string(b)
	}
	if s, ok := d.interned[string(b)]; ok {
		return s
	}
	if d.interned == nil || len(d.interned) >= internMaxEntries {
		d.interned = make(map[string]string, 64)
	}
	s := string(b)
	d.interned[s] = s
	return s
}

var decoderPool = sync.Pool{New: func() any { return new(decoder) }}

// encBufPool recycles envelope encode buffers. Buffers that grew past
// maxPooledBuf are dropped so one oversized datagram does not pin memory.
var encBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

const maxPooledBuf = 64 * 1024

func getEncBuf() *[]byte { return encBufPool.Get().(*[]byte) }
func putEncBuf(b *[]byte) {
	if cap(*b) <= maxPooledBuf {
		encBufPool.Put(b)
	}
}

func appendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func appendVarint(b []byte, v int64) []byte {
	return binary.AppendVarint(b, v)
}

func appendStr(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = appendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

func appendBools(b []byte, bs []bool) []byte {
	b = appendUvarint(b, uint64(len(bs)))
	var cur byte
	for i, v := range bs {
		if v {
			cur |= 1 << (i % 8)
		}
		if i%8 == 7 {
			b = append(b, cur)
			cur = 0
		}
	}
	if len(bs)%8 != 0 {
		b = append(b, cur)
	}
	return b
}

// AppendMessage appends m's binary encoding to dst and returns the extended
// slice.
func AppendMessage(dst []byte, m Message) []byte {
	if code, ok := kindCode[m.Kind]; ok {
		dst = append(dst, code)
	} else {
		dst = append(dst, kindOther)
		dst = appendStr(dst, string(m.Kind))
	}
	flags := byte(m.Verdict) << verdictShift
	if m.OK {
		flags |= flagOK
	}
	if m.Found {
		flags |= flagFound
	}
	if m.Combined {
		flags |= flagCombined
	}
	dst = append(dst, flags)
	dst = appendStr(dst, m.Group)
	dst = appendVarint(dst, m.Pos)
	dst = appendVarint(dst, m.Ballot)
	dst = appendVarint(dst, m.TS)
	dst = appendVarint(dst, m.Epoch)
	dst = appendStr(dst, m.Key)
	dst = appendStr(dst, m.Value)
	dst = appendStr(dst, m.Err)
	dst = appendUvarint(dst, uint64(len(m.Payload)))
	dst = append(dst, m.Payload...)
	dst = appendStrs(dst, m.Keys)
	dst = appendStrs(dst, m.Vals)
	dst = appendBools(dst, m.Founds)
	return dst
}

// wireReader decodes the binary layout from a byte slice. With a decoder
// attached it reuses that decoder's scratch and interns strings, or, while
// the decoder has a view, takes them from it; without one every string and
// slice is freshly allocated.
type wireReader struct {
	buf []byte
	d   *decoder
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad uvarint", ErrBadWire)
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *wireReader) varint() (int64, error) {
	v, n := binary.Varint(r.buf)
	if n <= 0 {
		return 0, fmt.Errorf("%w: bad varint", ErrBadWire)
	}
	r.buf = r.buf[n:]
	return v, nil
}

func (r *wireReader) byte() (byte, error) {
	if len(r.buf) == 0 {
		return 0, fmt.Errorf("%w: short buffer", ErrBadWire)
	}
	b := r.buf[0]
	r.buf = r.buf[1:]
	return b, nil
}

func (r *wireReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > wireMaxStr {
		return "", fmt.Errorf("%w: string length %d", ErrBadWire, n)
	}
	if uint64(len(r.buf)) < n {
		return "", fmt.Errorf("%w: short string", ErrBadWire)
	}
	b := r.buf[:n]
	r.buf = r.buf[n:]
	switch {
	case r.d != nil && r.d.view != "":
		at := uint64(len(r.d.view) - len(r.buf))
		return r.d.view[at-n : at], nil
	case r.d != nil:
		return r.d.intern(b), nil
	}
	return string(b), nil
}

func (r *wireReader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > wireMaxStr {
		return nil, fmt.Errorf("%w: payload length %d", ErrBadWire, n)
	}
	if uint64(len(r.buf)) < n {
		return nil, fmt.Errorf("%w: short payload", ErrBadWire)
	}
	if n == 0 {
		return nil, nil
	}
	var out []byte
	if r.d != nil {
		r.d.payload = append(r.d.payload[:0], r.buf[:n]...)
		out = r.d.payload
	} else {
		out = make([]byte, n)
		copy(out, r.buf)
	}
	r.buf = r.buf[n:]
	return out, nil
}

// strs decodes a string list. scratch, when non-nil, supplies (and receives
// back) the reusable backing array.
func (r *wireReader) strs(scratch *[]string) ([]string, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > wireMaxCount || n > uint64(len(r.buf)) { // an element is a byte at least
		return nil, fmt.Errorf("%w: list length %d", ErrBadWire, n)
	}
	if n == 0 {
		return nil, nil
	}
	var out []string
	if scratch != nil {
		out = (*scratch)[:0]
	} else {
		out = make([]string, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		s, err := r.str()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	if scratch != nil {
		*scratch = out
	}
	return out, nil
}

func (r *wireReader) bools(scratch *[]bool) ([]bool, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if n > wireMaxCount {
		return nil, fmt.Errorf("%w: bitmap length %d", ErrBadWire, n)
	}
	if n == 0 {
		return nil, nil
	}
	nbytes := (n + 7) / 8
	if uint64(len(r.buf)) < nbytes {
		return nil, fmt.Errorf("%w: short bitmap", ErrBadWire)
	}
	var out []bool
	if scratch != nil && uint64(cap(*scratch)) >= n {
		out = (*scratch)[:n]
	} else {
		out = make([]bool, n)
		if scratch != nil {
			*scratch = out
		}
	}
	for i := uint64(0); i < n; i++ {
		out[i] = r.buf[i/8]&(1<<(i%8)) != 0
	}
	r.buf = r.buf[nbytes:]
	return out, nil
}

// kind decodes a message's kind: a kindTable code, or kindOther and a string.
func (r *wireReader) kind() (Kind, error) {
	kb, err := r.byte()
	if err != nil {
		return "", err
	}
	switch {
	case kb == kindOther:
		s, err := r.str()
		return Kind(s), err
	case int(kb) < len(kindTable):
		return kindTable[kb], nil
	}
	return "", fmt.Errorf("%w: unknown kind code %#x", ErrBadWire, kb)
}

// readMessage decodes one Message from the reader.
func (r *wireReader) readMessage() (Message, error) {
	var m Message
	var err error
	if m.Kind, err = r.kind(); err != nil {
		return Message{}, err
	}
	flags, err := r.byte()
	if err != nil {
		return Message{}, err
	}
	m.OK = flags&flagOK != 0
	m.Found = flags&flagFound != 0
	m.Combined = flags&flagCombined != 0
	if m.Verdict = Verdict(flags >> verdictShift); m.Verdict >= verdictEnd {
		return Message{}, fmt.Errorf("%w: unknown verdict code %d", ErrBadWire, m.Verdict)
	}
	if m.Group, err = r.str(); err != nil {
		return Message{}, err
	}
	if m.Pos, err = r.varint(); err != nil {
		return Message{}, err
	}
	if m.Ballot, err = r.varint(); err != nil {
		return Message{}, err
	}
	if m.TS, err = r.varint(); err != nil {
		return Message{}, err
	}
	if m.Epoch, err = r.varint(); err != nil {
		return Message{}, err
	}
	if m.Key, err = r.str(); err != nil {
		return Message{}, err
	}
	if m.Value, err = r.str(); err != nil {
		return Message{}, err
	}
	if m.Err, err = r.str(); err != nil {
		return Message{}, err
	}
	if m.Payload, err = r.bytes(); err != nil {
		return Message{}, err
	}
	var keys, vals *[]string
	var founds *[]bool
	if r.d != nil {
		keys, vals, founds = &r.d.keys, &r.d.vals, &r.d.founds
	}
	if m.Keys, err = r.strs(keys); err != nil {
		return Message{}, err
	}
	if m.Vals, err = r.strs(vals); err != nil {
		return Message{}, err
	}
	if m.Founds, err = r.bools(founds); err != nil {
		return Message{}, err
	}
	return m, nil
}

// MarshalBinary encodes m in the compact binary message format (without an
// envelope header).
func MarshalBinary(m Message) []byte {
	return AppendMessage(make([]byte, 0, 64), m)
}

// UnmarshalBinary decodes a message produced by MarshalBinary. Corrupt or
// truncated input returns ErrBadWire; it never panics. The result is freshly
// allocated and safe to retain.
func UnmarshalBinary(data []byte) (Message, error) {
	r := wireReader{buf: data}
	m, err := r.readMessage()
	if err != nil {
		return Message{}, err
	}
	if len(r.buf) != 0 {
		return Message{}, fmt.Errorf("%w: %d trailing bytes", ErrBadWire, len(r.buf))
	}
	return m, nil
}

// Envelope flag bits.
const envFlagResp = 1 << 0

// appendEnvelope appends the binary envelope encoding to dst.
func appendEnvelope(dst []byte, env envelope) []byte {
	dst = append(dst, wireVersion)
	var flags byte
	if env.Resp {
		flags |= envFlagResp
	}
	dst = append(dst, flags)
	dst = appendUvarint(dst, env.ID)
	dst = appendStr(dst, env.From)
	return AppendMessage(dst, env.Msg)
}

// decodeEnvelope decodes a binary envelope. With d non-nil the decode reuses
// d's scratch and the result is valid only until d's next use; with d nil
// everything is freshly allocated.
func decodeEnvelope(data []byte, d *decoder) (envelope, error) {
	var env envelope
	if len(data) == 0 || data[0] != wireVersion {
		return envelope{}, fmt.Errorf("%w: bad wire version", ErrBadWire)
	}
	r := wireReader{buf: data[1:], d: d}
	flags, err := r.byte()
	if err != nil {
		return envelope{}, err
	}
	env.Resp = flags&envFlagResp != 0
	if env.ID, err = r.uvarint(); err != nil {
		return envelope{}, err
	}
	if env.From, err = r.str(); err != nil {
		return envelope{}, err
	}
	if env.Msg, err = r.readMessage(); err != nil {
		return envelope{}, err
	}
	if len(r.buf) != 0 {
		return envelope{}, fmt.Errorf("%w: %d trailing bytes", ErrBadWire, len(r.buf))
	}
	return env, nil
}

// envelopeKind reads the kind of an encoded envelope's message from the
// header in front of it, decoding nothing else. A malformed envelope has
// the empty kind.
func envelopeKind(data []byte) Kind {
	if len(data) < 2 {
		return ""
	}
	r := wireReader{buf: data[2:]}
	if _, err := r.uvarint(); err != nil { // the ID
		return ""
	}
	n, err := r.uvarint() // the sender's name
	if err != nil || uint64(len(r.buf)) < n {
		return ""
	}
	r.buf = r.buf[n:]
	k, _ := r.kind()
	return k
}
