package wal

import (
	"errors"
	"reflect"
	"testing"
	"testing/quick"
)

func txn(id string, readPos int64, reads []string, writes map[string]string) Txn {
	return Txn{ID: id, Origin: "V1", ReadPos: readPos, ReadSet: reads, Writes: writes}
}

func TestTxnIsReadOnly(t *testing.T) {
	ro := txn("r", 0, []string{"a"}, nil)
	if !ro.IsReadOnly() {
		t.Fatal("transaction without writes must be read-only")
	}
	rw := txn("w", 0, nil, map[string]string{"a": "1"})
	if rw.IsReadOnly() {
		t.Fatal("transaction with writes must not be read-only")
	}
}

func TestTxnCloneIndependence(t *testing.T) {
	orig := txn("t", 3, []string{"a"}, map[string]string{"x": "1"})
	c := orig.Clone()
	c.ReadSet[0] = "mutated"
	c.Writes["x"] = "mutated"
	if orig.ReadSet[0] != "a" || orig.Writes["x"] != "1" {
		t.Fatalf("Clone shares storage: %v", orig)
	}
}

func TestEntrySerializableOrder(t *testing.T) {
	t1 := txn("t1", 4, []string{"a"}, map[string]string{"b": "1"})
	t2 := txn("t2", 4, []string{"c"}, map[string]string{"d": "1"})
	t3 := txn("t3", 4, []string{"b"}, map[string]string{"e": "1"}) // reads t1's write

	if !NewEntry(t1, t2).SerializableOrder() {
		t.Fatal("disjoint txns must be combinable")
	}
	if NewEntry(t1, t3).SerializableOrder() {
		t.Fatal("t3 reads t1's write; [t1,t3] must not be serializable in order")
	}
	// The reverse order is fine: t3 reads b before t1 writes it.
	if !NewEntry(t3, t1).SerializableOrder() {
		t.Fatal("[t3,t1] must be serializable in order")
	}
}

func TestEntryConflicts(t *testing.T) {
	t1 := txn("t1", 0, nil, map[string]string{"x": "1"})
	e := NewEntry(t1)
	if !e.WritesAny(txn("t2", 0, []string{"x"}, nil).ReadSet) {
		t.Fatal("reader of x must conflict with writer of x")
	}
	if e.WritesAny(txn("t3", 0, []string{"y"}, map[string]string{"x": "2"}).ReadSet) {
		t.Fatal("write-write is not a combination conflict (list order resolves it)")
	}
}

func TestEntryWritesLastWins(t *testing.T) {
	t1 := txn("t1", 0, nil, map[string]string{"x": "old", "y": "1"})
	t2 := txn("t2", 0, nil, map[string]string{"x": "new"})
	w := NewEntry(t1, t2).Writes()
	if w["x"] != "new" || w["y"] != "1" {
		t.Fatalf("Writes = %v", w)
	}
}

func TestNoOp(t *testing.T) {
	if !NoOp().IsNoOp() {
		t.Fatal("NoOp must be a no-op")
	}
	if NoOp().Contains("t") {
		t.Fatal("NoOp contains nothing")
	}
	if !NoOp().SerializableOrder() {
		t.Fatal("NoOp is trivially serializable")
	}
}

func TestEntryContains(t *testing.T) {
	e := NewEntry(txn("a", 0, nil, map[string]string{"k": "v"}))
	if !e.Contains("a") || e.Contains("b") {
		t.Fatalf("Contains misbehaves: %v", e)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	e := NewEntry(
		txn("txn-1", 42, []string{"attr1", "attr2"}, map[string]string{"attr3": "v3", "attr4": ""}),
		txn("txn-2", 42, nil, map[string]string{"a": "with\x00binary\xff"}),
	)
	got, err := Decode(Encode(e))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(normalize(e), normalize(got)) {
		t.Fatalf("round trip mismatch:\n in: %#v\nout: %#v", e, got)
	}
}

func TestEncodeDecodeNoOp(t *testing.T) {
	got, err := Decode(Encode(NoOp()))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !got.IsNoOp() {
		t.Fatalf("no-op round trip = %v", got)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{0x00},
		{0xde, 0xad, 0x01, 0x00},       // bad magic
		{0x57, 0x43, 0x09, 0x00},       // bad version
		{0x57, 0x43, 0x01, 0xff, 0xff}, // truncated count varint then EOF
	}
	for i, data := range cases {
		if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("case %d: err = %v, want ErrCorrupt", i, err)
		}
	}
	// Trailing garbage after a valid entry.
	valid := Encode(NewEntry(txn("t", 0, nil, map[string]string{"a": "b"})))
	if _, err := Decode(append(valid, 0x00)); !errors.Is(err, ErrCorrupt) {
		t.Errorf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
}

func TestDecodeTruncatedEverywhere(t *testing.T) {
	full := Encode(NewEntry(
		txn("txn-long-id", 7, []string{"read-a", "read-b"}, map[string]string{"w1": "v1", "w2": "v2"}),
	))
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Fatalf("truncation at %d/%d decoded successfully", cut, len(full))
		}
	}
	if _, err := Decode(full); err != nil {
		t.Fatalf("full payload failed: %v", err)
	}
}

func TestEncodeDeterministic(t *testing.T) {
	e := NewEntry(txn("t", 0, []string{"r"}, map[string]string{
		"z": "1", "a": "2", "m": "3", "b": "4",
	}))
	first := Encode(e)
	for i := 0; i < 10; i++ {
		if string(Encode(e)) != string(first) {
			t.Fatal("Encode is not deterministic across map iteration orders")
		}
	}
}

// normalize empties nil-vs-empty differences so DeepEqual compares semantics.
func normalize(e Entry) Entry {
	out := e.Clone()
	for i := range out.Txns {
		if out.Txns[i].ReadSet == nil {
			out.Txns[i].ReadSet = []string{}
		}
		if out.Txns[i].Writes == nil {
			out.Txns[i].Writes = map[string]string{}
		}
	}
	if out.Txns == nil {
		out.Txns = []Txn{}
	}
	return out
}

// TestPropCodecRoundTrip round-trips randomly generated entries.
func TestPropCodecRoundTrip(t *testing.T) {
	f := func(ids []string, readPos int64, reads []string, wk, wv []string) bool {
		var txns []Txn
		for i, id := range ids {
			if i >= 4 {
				break
			}
			writes := map[string]string{}
			for j := range wk {
				if j < len(wv) {
					writes[wk[j]] = wv[j]
				}
			}
			txns = append(txns, Txn{
				ID: id, Origin: "O", ReadPos: readPos,
				ReadSet: reads, Writes: writes,
			})
		}
		e := NewEntry(txns...)
		got, err := Decode(Encode(e))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(normalize(e), normalize(got))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestPropSerializableOrderPrefixClosed: if an entry's order is serializable,
// every prefix of it is too.
func TestPropSerializableOrderPrefixClosed(t *testing.T) {
	f := func(seed uint8) bool {
		// Build a random entry over a tiny key space to force conflicts.
		keys := []string{"a", "b", "c"}
		var txns []Txn
		n := int(seed%5) + 1
		for i := 0; i < n; i++ {
			r := keys[(int(seed)+i)%3]
			w := keys[(int(seed)+2*i+1)%3]
			txns = append(txns, Txn{
				ID: string(rune('a' + i)), ReadSet: []string{r},
				Writes: map[string]string{w: "v"},
			})
		}
		e := NewEntry(txns...)
		if !e.SerializableOrder() {
			return true // vacuous
		}
		for cut := 0; cut <= len(e.Txns); cut++ {
			if !(Entry{Txns: e.Txns[:cut]}).SerializableOrder() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
