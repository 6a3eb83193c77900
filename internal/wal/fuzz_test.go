package wal

import (
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the codec: it must never panic, it
// must allocate by the bytes that arrived — decodeBytesPerByte per byte plus
// slack — not by the counts they claim, and anything it accepts must
// re-encode to a decodable, equivalent entry (decode∘encode is the identity
// on the codec's image).
func FuzzDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(NoOp()))
	f.Add(Encode(NewEntry(Txn{
		ID: "t1", Origin: "V1", ReadPos: 7,
		ReadSet: []string{"a", "b"},
		Writes:  map[string]string{"c": "1", "d": ""},
	})))
	f.Add([]byte{0x57, 0x43, 0x01, 0xff, 0xff, 0xff})
	f.Add([]byte{0x57, 0x43, 0x01, 0x01, 0x00, 0x00, 0x00, 0x00, 0x80, 0x80, 0x04}) // 65536 writes claimed, none sent
	for _, g := range goldenEntries {
		f.Add([]byte(g.bytes))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if grew, err := decodeAllocated(data); grew > uint64(decodeBytesPerByte*len(data)+decodeSlack) {
			t.Fatalf("decoding %d bytes allocated %d (err %v)", len(data), grew, err)
		}
		entry, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(entry)
		back, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encode of accepted entry failed: %v", err)
		}
		if !reflect.DeepEqual(normalize(entry), normalize(back)) {
			t.Fatalf("decode∘encode not stable:\n first: %#v\nsecond: %#v", entry, back)
		}
	})
}

// FuzzEncodeRoundTrip fuzzes structured inputs through encode→decode.
func FuzzEncodeRoundTrip(f *testing.F) {
	f.Add("id", "origin", int64(3), "read1", "wkey", "wval")
	f.Add("", "", int64(-9), "", "", "")
	f.Fuzz(func(t *testing.T, id, origin string, readPos int64, read, wk, wv string) {
		e := NewEntry(Txn{
			ID: id, Origin: origin, ReadPos: readPos,
			ReadSet: []string{read},
			Writes:  map[string]string{wk: wv},
		})
		got, err := Decode(Encode(e))
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !reflect.DeepEqual(normalize(e), normalize(got)) {
			t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", e, got)
		}
	})
}
