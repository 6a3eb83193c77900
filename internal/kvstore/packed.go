package kvstore

import (
	"errors"
	"strings"
)

// Packed is one version's contents in the form the store holds them: one
// immutable byte string, the attribute block the disk engine's WAL writes
// for an OpWrite record (DESIGN.md §5, §14):
//
//	uvarint(nattrs) | nattrs × (uvarint-len attr, uvarint-len value)
//
// with attributes in strictly ascending order. The order makes the encoding
// canonical — two versions hold the same attributes exactly when their
// blocks are byte-equal — and the immutability is what lets reads hand the
// block out without copying it. The format is private to this type: build
// one with Pack or PackAttrs (or ParsePacked, for bytes read back from
// disk), read it with Get or Unpack. The zero Packed is what a read that
// found nothing carries; it reads as having no attributes.
type Packed struct{ b string }

// Contents is what a write operation accepts as a version's contents: a
// Value, which the store packs on the way in, or a Packed, which it stores
// as is. Paths that write a row per commit build the Packed directly
// (PackAttrs) and never allocate a map.
type Contents interface{ pack() Packed }

func (v Value) pack() Packed  { return Pack(v) }
func (p Packed) pack() Packed { return p }

// packOf resolves a write's contents; a nil Contents packs as the empty
// attribute set, as a nil Value always has.
func packOf(c Contents) Packed {
	if c == nil {
		return Pack(nil)
	}
	return c.pack()
}

// Pack encodes v. A nil Value packs like an empty one.
func Pack(v Value) Packed {
	var stack [16]string // name, value pairs; rows rarely carry more than 8
	kv := stack[:0]
	for k, val := range v {
		kv = append(kv, k, val)
	}
	// Insertion sort by name, moving pairs: rows carry a handful of
	// attributes, and sort.Sort would cost an allocation for its interface.
	for i := 2; i < len(kv); i += 2 {
		for j := i; j > 0 && kv[j-2] > kv[j]; j -= 2 {
			kv[j-2], kv[j-1], kv[j], kv[j+1] = kv[j], kv[j+1], kv[j-2], kv[j-1]
		}
	}
	return packSorted(kv)
}

// PackAttrs encodes the attributes given as alternating name, value
// arguments, without building a map. Names must be strictly ascending —
// call sites spell them out as literals, so a violation is a bug and
// panics.
func PackAttrs(kv ...string) Packed {
	if len(kv)%2 != 0 {
		panic("kvstore: PackAttrs needs name, value pairs")
	}
	for i := 2; i < len(kv); i += 2 {
		if kv[i-2] >= kv[i] {
			panic("kvstore: PackAttrs names must be strictly ascending")
		}
	}
	return packSorted(kv)
}

// packSorted encodes name, value pairs already in ascending name order.
func packSorted(kv []string) Packed {
	size := uvarintLen(uint64(len(kv) / 2))
	for _, s := range kv {
		size += uvarintLen(uint64(len(s))) + len(s)
	}
	var sb strings.Builder
	sb.Grow(size)
	writeUvarint(&sb, uint64(len(kv)/2))
	for _, s := range kv {
		writeString(&sb, s)
	}
	return Packed{sb.String()}
}

// ParsePacked validates block as an attribute block and returns it as a
// Packed (a copy; block is not retained). It is the only way bytes from
// outside the process become a Packed, so everything Get and Unpack assume
// — counts and lengths in bounds, names strictly ascending, nothing
// trailing — is checked here.
func ParsePacked(block []byte) (Packed, error) {
	p := Packed{string(block)}
	n, rest, ok := cutUvarint(p.b)
	// Every attribute costs at least its two length bytes, which bounds a
	// lying count before anything is sized by it.
	if !ok || n > uint64(len(rest))/2 {
		return Packed{}, errors.New("kvstore: packed value: bad attribute count")
	}
	prev := ""
	for i := uint64(0); i < n; i++ {
		var k string
		if k, rest, ok = cutString(rest); ok {
			_, rest, ok = cutString(rest)
		}
		if !ok {
			return Packed{}, errors.New("kvstore: packed value: bad attribute length")
		}
		if i > 0 && k <= prev {
			return Packed{}, errors.New("kvstore: packed value: attributes not in ascending order")
		}
		prev = k
	}
	if rest != "" {
		return Packed{}, errors.New("kvstore: packed value: trailing bytes")
	}
	return p, nil
}

// Block returns the encoded attribute block, for the disk engine to copy
// into a WAL record.
func (p Packed) Block() string { return p.b }

// Get returns the value of attribute attr, "" when the version has no such
// attribute (as indexing a Value would). The result shares p's memory.
func (p Packed) Get(attr string) string {
	n, rest, _ := cutUvarint(p.b)
	for ; n > 0; n-- {
		var k, v string
		k, rest, _ = cutString(rest)
		v, rest, _ = cutString(rest)
		if k == attr {
			return v
		}
		if k > attr {
			break // ascending order: attr is absent
		}
	}
	return ""
}

// Unpack returns the contents as a fresh Value the caller owns. The zero
// Packed unpacks to an empty, non-nil Value.
func (p Packed) Unpack() Value {
	n, rest, _ := cutUvarint(p.b)
	out := make(Value, n)
	for ; n > 0; n-- {
		var k, v string
		k, rest, _ = cutString(rest)
		v, rest, _ = cutString(rest)
		out[k] = v
	}
	return out
}

// cutUvarint splits a uvarint off the front of s. ok is false when s ends
// inside it, it overflows 64 bits, or it is padded with a trailing zero
// group (the encoding must be the one writeUvarint produces, or equal
// contents could differ in bytes).
func cutUvarint(s string) (x uint64, rest string, ok bool) {
	for i, shift := 0, uint(0); i < len(s) && i < 10; i, shift = i+1, shift+7 {
		c := s[i]
		if c < 0x80 {
			if i == 9 && c > 1 || i > 0 && c == 0 {
				return 0, s, false
			}
			return x | uint64(c)<<shift, s[i+1:], true
		}
		x |= uint64(c&0x7f) << shift
	}
	return 0, s, false
}

// cutString splits a length-prefixed string off the front of s.
func cutString(s string) (str, rest string, ok bool) {
	n, rest, ok := cutUvarint(s)
	if !ok || n > uint64(len(rest)) {
		return "", s, false
	}
	return rest[:n], rest[n:], true
}

func uvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

func writeUvarint(sb *strings.Builder, x uint64) {
	for ; x >= 0x80; x >>= 7 {
		sb.WriteByte(byte(x) | 0x80)
	}
	sb.WriteByte(byte(x))
}

func writeString(sb *strings.Builder, s string) {
	writeUvarint(sb, uint64(len(s)))
	sb.WriteString(s)
}
