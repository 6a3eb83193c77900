package wal

import (
	"fmt"
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary bytes at the codec: it must never panic, it
// must allocate by the bytes that arrived — decodeBytesPerByte per byte plus
// slack — not by the counts they claim, and anything it accepts must
// re-encode to a decodable, equivalent entry (decode∘encode is the identity
// on the codec's image). The Reader agrees with DecodeString on every input:
// Check refuses exactly what DecodeString refuses, a walk of an accepted
// entry reads the fields the decoded entry holds, and the byte walks Contains
// and WritesAny answer as the decoded entry's methods do — for every ID and
// key the entry holds, and for ones it does not.
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
		if cerr := Check(string(data)); (cerr == nil) != (err == nil) {
			t.Fatalf("Check says %v, DecodeString says %v", cerr, err)
		}
		if err != nil {
			return
		}
		if diff := readerDiff(string(data), entry); diff != "" {
			t.Fatalf("the Reader and DecodeString disagree: %s", diff)
		}
		if diff := walksDiff(string(data), entry); diff != "" {
			t.Fatalf("a byte walk and the decoded entry disagree: %s", diff)
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

// readerDiff walks s with a Reader, through its Keys and Writes walks, and
// describes the first field that differs from e ("" when none does).
func readerDiff(s string, e Entry) string {
	r, err := NewReader(s)
	if err != nil {
		return "NewReader: " + err.Error()
	}
	if r.Epoch != e.Epoch || r.Master != e.Master || r.IsHandoff() != (e.Handoff != nil) {
		return fmt.Sprintf("header epoch %d master %q handoff %v", r.Epoch, r.Master, r.IsHandoff())
	}
	if !reflect.DeepEqual(r.Handoff(), e.Handoff) {
		return fmt.Sprintf("handoff %#v", r.Handoff())
	}
	for i, want := range e.Txns {
		if !r.More() {
			return fmt.Sprintf("%d transactions, want %d", i, len(e.Txns))
		}
		v, err := r.Next()
		if err != nil {
			return fmt.Sprintf("transaction %d: %v", i, err)
		}
		if v.ID != want.ID || v.Origin != want.Origin || v.ReadPos != want.ReadPos || v.Backfill != want.Backfill {
			return fmt.Sprintf("transaction %d: %+v", i, v)
		}
		var reads []string
		for k := v.Reads(); ; {
			key, ok := k.Next()
			if !ok {
				break
			}
			reads = append(reads, key)
		}
		if len(reads) != len(want.ReadSet) || (len(reads) > 0 && !reflect.DeepEqual(reads, want.ReadSet)) {
			return fmt.Sprintf("transaction %d: reads %q, want %q", i, reads, want.ReadSet)
		}
		writes := make(map[string]string)
		for w := v.Writes(); ; {
			k, val, ok := w.Next()
			if !ok {
				break
			}
			writes[k] = val // the last of a repeated key wins, as in DecodeString
		}
		if len(writes) != len(want.Writes) || (len(writes) > 0 && !reflect.DeepEqual(writes, want.Writes)) {
			return fmt.Sprintf("transaction %d: writes %q, want %q", i, writes, want.Writes)
		}
	}
	if r.More() {
		return "transactions left over"
	}
	return ""
}

// walksDiff asks Contains and WritesAny of s and the same questions of e —
// every transaction's ID, each of its read and written keys alone, each read
// set whole, and an ID and a key e does not hold — and describes the first
// answer that differs ("" when none does).
func walksDiff(s string, e Entry) string {
	const absent = "\x00absent"
	ids := []string{absent}
	keySets := [][]string{nil, {absent}}
	for _, t := range e.Txns {
		ids = append(ids, t.ID)
		keySets = append(keySets, t.ReadSet)
		for _, k := range t.ReadSet {
			keySets = append(keySets, []string{k})
		}
		for k := range t.Writes {
			keySets = append(keySets, []string{k}, []string{absent, k})
		}
	}
	for _, id := range ids {
		if got, want := Contains(s, id), e.Contains(id); got != want {
			return fmt.Sprintf("Contains(%q) = %v, want %v", id, got, want)
		}
	}
	for _, keys := range keySets {
		if got, want := WritesAny(s, keys), e.WritesAny(keys); got != want {
			return fmt.Sprintf("WritesAny(%q) = %v, want %v", keys, got, want)
		}
	}
	return ""
}
