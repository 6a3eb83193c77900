package wal

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// spliceHeaders are the headers FuzzSplice and TestSpliceGolden build an
// entry under from the transactions of another: unfenced, epoch-stamped, a
// handoff, and the first two again with a backfill transaction appended,
// which moves every other transaction to the v3 layout.
func spliceHeaders(epoch int64) []struct {
	name     string
	epoch    int64
	handoff  *Handoff
	backfill bool
} {
	if epoch == 0 {
		epoch = -5
	}
	h := NewHandoff(HandoffPrepare, "g0", "g2", []string{"g0", "g1", "g2"}).Handoff
	return []struct {
		name     string
		epoch    int64
		handoff  *Handoff
		backfill bool
	}{
		{"epoch 0", 0, nil, false},
		{"epoch", epoch, nil, false},
		{"handoff", epoch, h, false},
		{"backfill, epoch 0", 0, nil, true},
		{"backfill, epoch", epoch, nil, true},
	}
}

// spliceBackfill is the backfill transaction spliceHeaders appends.
var spliceBackfill = Txn{ID: "bf", Origin: "g1", ReadPos: 4, Backfill: true, Writes: map[string]string{"m": "x"}}

// spliceDiff splices the transactions of the encoded entry s under every
// header of spliceHeaders, and describes the first splice that differs from
// Encode of the entry of s's decoded transactions under the same header (""
// when none does, or when s is not an entry Splice is held to: one Check
// refuses, or whose write keys are not in Encode's order).
func spliceDiff(s string) string {
	e, err := DecodeString(s)
	if err != nil {
		return ""
	}
	var views []TxnView
	for r, _ := NewReader(s); r.More(); {
		v, _ := r.Next()
		if !v.sortedWrites() {
			return ""
		}
		views = append(views, v)
	}
	bf, err := OneTxn(string(Encode(NewEntry(spliceBackfill))))
	if err != nil {
		return "the backfill: " + err.Error()
	}
	for _, c := range spliceHeaders(e.Epoch) {
		txns, want := views, Entry{Epoch: c.epoch, Handoff: c.handoff, Txns: e.Txns}
		if c.backfill {
			txns = append(txns[:len(txns):len(txns)], bf)
			want.Txns = append(want.Txns[:len(want.Txns):len(want.Txns)], spliceBackfill)
		}
		if got, want := string(Splice(c.epoch, c.handoff, txns)), string(Encode(want)); got != want {
			return fmt.Sprintf("%s: Splice = %q, Encode = %q", c.name, got, want)
		}
	}
	return ""
}

// FuzzSplice holds Splice to Encode: for every input Check accepts whose
// write keys are in Encode's order, splicing its transactions under a header
// writes, byte for byte, what Encode writes for the entry of its decoded
// transactions under that header — unfenced, epoch-stamped, a handoff, and
// with a backfill that moves v1 and v2 transactions to the v3 layout.
func FuzzSplice(f *testing.F) {
	t1 := Txn{ID: "t1", Origin: "V1", ReadPos: 7, ReadSet: []string{"a", "b"}, Writes: map[string]string{"c": "1", "d": ""}}
	t2 := Txn{ID: "t2", Origin: "V2", ReadPos: -3, ReadSet: []string{"c"}}
	for _, e := range []Entry{
		NoOp(),
		{Txns: []Txn{t1}},
		{Txns: []Txn{t1, t2}},
		{Epoch: 9, Txns: []Txn{t1, t2}},
		{Epoch: 2, Txns: []Txn{t2, spliceBackfill, t1}},
		{Handoff: NewHandoff(HandoffIn, "g1", "g3", []string{"g3"}).Handoff, Txns: []Txn{t1}},
		NewClaim(4, "V3"),
	} {
		f.Add(Encode(e))
	}
	for _, g := range goldenEntries {
		f.Add([]byte(g.bytes))
	}
	// t1's read position 7 padded to two bytes: a spelling Encode never
	// writes, which the Reader refuses, so no splice reuses it.
	f.Add([]byte(strings.Replace(string(Encode(NewEntry(t1))), "\x02t1\x0e", "\x02t1\x8e\x00", 1)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if diff := spliceDiff(string(data)); diff != "" {
			t.Fatal(diff)
		}
	})
}

// TestSpliceGolden: splicing the transactions of every golden entry under
// each header writes what Encode writes — the golden bytes themselves under
// the entry's own header.
func TestSpliceGolden(t *testing.T) {
	for _, g := range goldenEntries {
		if diff := spliceDiff(g.bytes); diff != "" {
			t.Errorf("%s: %s", g.name, diff)
		}
		if g.entry.Master != "" {
			continue
		}
		r, err := NewReader(g.bytes)
		if err != nil {
			t.Fatal(err)
		}
		var views []TxnView
		for r.More() {
			v, err := r.Next()
			if err != nil {
				t.Fatal(err)
			}
			views = append(views, v)
		}
		if got := string(Splice(r.Epoch, r.Handoff(), views)); got != g.bytes {
			t.Errorf("%s: Splice = %q, want %q", g.name, got, g.bytes)
		}
	}
}

// TestSpliceAllocatesOnce: Splice sizes the entry exactly and builds it in
// its one allocation, whatever layout it writes.
func TestSpliceAllocatesOnce(t *testing.T) {
	var views []TxnView
	for _, txn := range []Txn{
		{ID: "t1", Origin: "V1", ReadPos: 3, ReadSet: []string{"r"}, Writes: map[string]string{"a": "1", "b": "2"}},
		{ID: "t2", Origin: "V2", ReadPos: 3, Writes: map[string]string{"c": "3"}},
		spliceBackfill,
	} {
		v, err := OneTxn(string(Encode(NewEntry(txn))))
		if err != nil {
			t.Fatal(err)
		}
		views = append(views, v)
	}
	h := NewHandoff(HandoffOut, "g1", "g3", []string{"g3"}).Handoff
	for _, c := range []struct {
		name  string
		epoch int64
		h     *Handoff
		txns  []TxnView
	}{
		{"v1", 0, nil, views[:2]},
		{"v2", 7, nil, views[:2]},
		{"v3 backfill", 7, nil, views},
		{"v3 handoff", 7, h, nil},
	} {
		if allocs := testing.AllocsPerRun(100, func() { Splice(c.epoch, c.h, c.txns) }); allocs != 1 {
			t.Errorf("%s: Splice allocates %.0f times, want 1", c.name, allocs)
		}
		if b := Splice(c.epoch, c.h, c.txns); len(b) != cap(b) {
			t.Errorf("%s: spliced %d bytes into a buffer of %d", c.name, len(b), cap(b))
		}
	}
}

// TestOneTxn: a submit is read without allocating, its Size is the
// transaction's length at the v3 layout whatever layout carried it, and
// what Encode does not write for one transaction is refused.
func TestOneTxn(t *testing.T) {
	txn := Txn{ID: "t1", Origin: "V1", ReadPos: 300, ReadSet: []string{"r"}, Writes: map[string]string{"a": "1", "b": "2"}}
	bf := txn
	bf.Backfill = true
	for _, e := range []Entry{NewEntry(txn), {Epoch: 4, Txns: []Txn{txn}}, NewEntry(bf)} {
		s := string(Encode(e))
		v, err := OneTxn(s)
		if err != nil {
			t.Fatalf("%v: %v", e, err)
		}
		if v.ID != "t1" || v.ReadPos != 300 || v.Backfill != e.Txns[0].Backfill {
			t.Errorf("%v: read %+v", e, v)
		}
		if got, want := v.Size(), txnLen(e.Txns[0], codecVersionMigrate); got != want {
			t.Errorf("%v: Size = %d, want %d", e, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _, _ = OneTxn(s) }); allocs != 0 {
			t.Errorf("%v: OneTxn allocates %.0f times, want 0", e, allocs)
		}
	}
	one := string(Encode(NewEntry(txn)))
	// "a" then "b": swapping the two pairs puts them out of order, and
	// renaming "b" to "a" repeats a key.
	swapped := strings.Replace(one, "\x01a\x011\x01b\x012", "\x01b\x012\x01a\x011", 1)
	repeated := strings.Replace(one, "\x01b\x012", "\x01a\x012", 1)
	if swapped == one || repeated == one {
		t.Fatal("the write pairs were not where the test expects them")
	}
	for name, s := range map[string]string{
		"no transaction":   string(Encode(NoOp())),
		"two transactions": string(Encode(NewEntry(txn, Txn{ID: "t2"}))),
		"a handoff":        string(Encode(NewHandoff(HandoffIn, "g1", "g2", []string{"g2"}))),
		"trailing bytes":   one + "x",
		"truncated":        one[:len(one)-1],
		"writes swapped":   swapped,
		"write repeated":   repeated,
	} {
		if _, err := OneTxn(s); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: OneTxn err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestOverlongVarintRefused: a varint padded past its shortest form is not
// what Encode writes, and the Reader refuses it — here the read position 1
// sent as 0x81 0x00.
func TestOverlongVarintRefused(t *testing.T) {
	one := string(Encode(NewEntry(Txn{ID: "t", ReadPos: -1})))
	padded := strings.Replace(one, "\x01t\x01", "\x01t\x81\x00", 1)
	if padded == one {
		t.Fatal("the read position was not where the test expects it")
	}
	if err := Check(padded); !errors.Is(err, ErrCorrupt) {
		t.Errorf("Check(%q) = %v, want ErrCorrupt", padded, err)
	}
}

// TestInvalidates: the conflict questions over a read set's bytes answer
// as WritesAny over the same keys, allocating nothing.
func TestInvalidates(t *testing.T) {
	s := string(Encode(NewEntry(
		Txn{ID: "w1", Writes: map[string]string{"a": "1", "b": "2"}},
		Txn{ID: "w2", Writes: map[string]string{"c": "3"}},
	)))
	w2, _ := OneTxn(string(Encode(NewEntry(Txn{ID: "w2", Writes: map[string]string{"c": "3"}}))))
	for _, reads := range [][]string{nil, {"z"}, {"z", "c"}, {"b"}, {"y", "x"}} {
		r, err := OneTxn(string(Encode(NewEntry(Txn{ID: "r", ReadSet: reads}))))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := Invalidates(s, r), WritesAny(s, reads); got != want {
			t.Errorf("Invalidates(entry, reads %q) = %v, want %v", reads, got, want)
		}
		if got, want := w2.Invalidates(r), len(reads) == 2 && reads[1] == "c"; got != want {
			t.Errorf("w2.Invalidates(reads %q) = %v, want %v", reads, got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = Invalidates(s, r) || w2.Invalidates(r) }); allocs != 0 {
			t.Errorf("Invalidates allocates %.0f times, want 0", allocs)
		}
	}
	if !Invalidates("junk", TxnView{}) {
		t.Error("Invalidates over bytes Check refuses = false, want true")
	}
}
