package network

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
)

// TestBatchFraming: messages of every kind and size — lengths that take
// one, two and three uvarint bytes — come back out of a batch payload in
// order, through both walks; and a payload cut short, or with bytes after an
// item's message, is ErrBadWire.
func TestBatchFraming(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var in []Message
	var payload []byte
	for i, kind := range allKinds {
		m := randMessage(rng, kind)
		m.Value = strings.Repeat("v", []int{0, 100, 20000}[i%3])
		in = append(in, m)
		payload = AppendBatchItem(payload, m)
	}
	for name, each := range map[string]func([]byte, func(Message) bool) error{"EachRequest": EachRequest, "EachReply": EachReply} {
		var out []Message
		if err := each(payload, func(m Message) bool {
			if n := len(out); !msgEqual(m, in[n]) {
				t.Errorf("%s: item %d:\n in: %+v\nout: %+v", name, n, in[n], m)
			}
			out = append(out, m)
			return true
		}); err != nil || len(out) != len(in) {
			t.Errorf("%s: %d of %d items, %v", name, len(out), len(in), err)
		}
		n := 0
		if err := each(payload, func(Message) bool { n++; return n < 2 }); err != nil || n != 2 {
			t.Errorf("%s stopped by fn: %d items, %v", name, n, err)
		}
	}
	if err := EachReply(payload[:len(payload)-1], func(Message) bool { return true }); !errors.Is(err, ErrBadWire) {
		t.Errorf("a payload cut short: %v", err)
	}
	item := MarshalBinary(in[0])
	padded := append(append(appendUvarint(nil, uint64(len(item)+1)), item...), 0)
	if err := EachReply(padded, func(Message) bool { return true }); !errors.Is(err, ErrBadWire) {
		t.Errorf("an item with a trailing byte: %v", err)
	}
}
