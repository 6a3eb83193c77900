package wal

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
)

// goldenEntries are one entry of every layout, with the encodings an earlier
// encoder (bytes.Buffer and binary.Write) produced for them. Stored log rows
// and accept/apply payloads hold exactly these bytes, so the encoder may
// change how it builds them, never what it builds.
var goldenEntries = []struct {
	name  string
	entry Entry
	bytes string
}{
	{"v1 two txns", Entry{Txns: []Txn{
		{ID: "t1", Origin: "V1", ReadPos: 7, ReadSet: []string{"a", "b"},
			Writes: map[string]string{"zz": "long value", "c": "1", "d": ""}},
		{ID: "t2", Origin: "O2", ReadPos: -3, Writes: map[string]string{"k": "\x00\xff"}},
	}}, "WC\x01\x02\x02t1\x0e\x02V1\x02\x01a\x01b\x03\x01c\x011\x01d\x00\x02zz\nlong value\x02t2\x05\x02O2\x00\x01\x01k\x02\x00\xff"},
	{"v2 fenced txn", Entry{Epoch: 300, Txns: []Txn{{ID: "t3", Origin: "V2", ReadPos: 1 << 40,
		ReadSet: []string{"r"}, Writes: map[string]string{"w": "v"}}}},
		"WC\x02\xd8\x04\x00\x01\x02t3\x80\x80\x80\x80\x80@\x02V2\x01\x01r\x01\x01w\x01v"},
	{"v2 claim", NewClaim(5, "V3"), "WC\x02\n\x02V3\x00"},
	{"v3 handoff", NewHandoff(HandoffOut, "g1", "g3", []string{"g0", "g1", "g2", "g3"}),
		"WC\x03\x00\x00\x01\x02\x02g1\x02g3\b\x04\x02g0\x02g1\x02g2\x02g3\x00"},
	{"v3 backfill", Entry{Epoch: 2, Txns: []Txn{{ID: "b1", Origin: "g1", ReadPos: 9, Backfill: true,
		Writes: map[string]string{"m": "x", "a": "y"}}}},
		"WC\x03\x04\x00\x00\x01\x02b1\x12\x02g1\x01\x00\x02\x01a\x01y\x01m\x01x"},
}

func TestEncodeGolden(t *testing.T) {
	for _, g := range goldenEntries {
		if got := string(Encode(g.entry)); got != g.bytes {
			t.Errorf("%s: Encode = %q, want %q", g.name, got, g.bytes)
		}
		back, err := DecodeString(g.bytes)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !reflect.DeepEqual(normalize(back), normalize(g.entry)) {
			t.Errorf("%s: decoded %#v, want %#v", g.name, back, g.entry)
		}
	}
}

// TestEncodeAllocatesOnce: Encode sizes its output exactly, so the one
// allocation is the result, at full length and capacity.
func TestEncodeAllocatesOnce(t *testing.T) {
	for _, g := range goldenEntries {
		if allocs := testing.AllocsPerRun(100, func() { Encode(g.entry) }); allocs != 1 {
			t.Errorf("%s: Encode allocates %.0f times, want 1", g.name, allocs)
		}
		if b := Encode(g.entry); len(b) != cap(b) {
			t.Errorf("%s: encoded %d bytes into a buffer of %d", g.name, len(b), cap(b))
		}
	}
}

// TestDecodeAllocs: DecodeString allocates no string — a one-transaction,
// four-write entry costs its Txns slice and its write map, what building
// those two by hand costs — and Decode adds the one copy of its input.
func TestDecodeAllocs(t *testing.T) {
	writes := map[string]string{"attr1": "v1", "attr2": "v2", "attr3": "v3", "attr4": "v4"}
	enc := Encode(Entry{Txns: []Txn{{ID: "t1", Origin: "V1", ReadPos: 3, Writes: writes}}})
	s := string(enc)
	var sink Entry
	want := testing.AllocsPerRun(100, func() {
		sink.Txns = make([]Txn, 1)
		m := make(map[string]string, 4)
		for k, v := range writes {
			m[k] = v
		}
		sink.Txns[0].Writes = m
	})
	if got := testing.AllocsPerRun(100, func() { sink, _ = DecodeString(s) }); got != want {
		t.Errorf("DecodeString allocates %.0f times, want %.0f (the Txns slice and the write map)", got, want)
	}
	if got := testing.AllocsPerRun(100, func() { sink, _ = Decode(enc) }); got != want+1 {
		t.Errorf("Decode allocates %.0f times, want %.0f (DecodeString's and one copy)", got, want+1)
	}
}

// TestDecodeOwnsItsBytes: the entry Decode returns shares nothing with the
// bytes it was given. A transport hands a handler a pooled datagram buffer
// that is reused once the handler returns; the decoded entry outlives it.
func TestDecodeOwnsItsBytes(t *testing.T) {
	for _, g := range goldenEntries {
		b := []byte(g.bytes)
		e, err := Decode(b)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		for i := range b {
			b[i] = 0xAA
		}
		if !reflect.DeepEqual(normalize(e), normalize(g.entry)) {
			t.Errorf("%s: overwriting the input changed the entry: %#v", g.name, e)
		}
	}
}

// decodeBytesPerByte bounds what decoding may allocate per byte received.
// The steepest rate is a write set: a two-byte pair (empty key and value)
// takes a map slot of 32 bytes plus its control byte, and a map's capacity
// rounds up to a power of two at a 7/8 load — up to about 45 bytes per
// input byte. decodeSlack covers the fixed costs (the entry, an error) and
// whatever the test binary's other goroutines allocate meanwhile.
const (
	decodeBytesPerByte = 48
	decodeSlack        = 16 << 10
)

// decodeAllocated returns the bytes decoding data allocates.
func decodeAllocated(data []byte) (uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(data)
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, err
}

// TestDecodeHostileCounts: a payload that claims more elements than it
// carries is refused before anything is sized by the claim. Each of these
// claims 65536 elements (maxCount) and sends none; any client can send them
// to a master as a submit.
func TestDecodeHostileCounts(t *testing.T) {
	claim := []byte{0x80, 0x80, 0x04} // uvarint 65536
	txnHead := []byte{0x57, 0x43, 0x01, 0x01, 0x00, 0x00, 0x00}
	for _, c := range []struct {
		name string
		data []byte
	}{
		{"txns", append([]byte{0x57, 0x43, 0x01}, claim...)},
		{"reads", append(append([]byte(nil), txnHead...), claim...)},
		{"writes", append(append(append([]byte(nil), txnHead...), 0x00), claim...)},
		{"handoff groups", append([]byte{0x57, 0x43, 0x03, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x00}, claim...)},
	} {
		grew, err := decodeAllocated(c.data)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", c.name, err)
		}
		if limit := uint64(decodeBytesPerByte*len(c.data) + decodeSlack); grew > limit {
			t.Errorf("%s: decoding %d bytes allocated %d, limit %d", c.name, len(c.data), grew, limit)
		}
	}
}
