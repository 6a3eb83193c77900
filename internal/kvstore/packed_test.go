package kvstore

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// randValue draws a Value that covers the encoding's corners: no attributes,
// empty names and values, many attributes, arbitrary bytes.
func randValue(rng *rand.Rand) Value {
	bytesOf := func(max int) string {
		b := make([]byte, rng.Intn(max))
		rng.Read(b)
		return string(b)
	}
	v := Value{}
	for n := rng.Intn(12); n > 0; n-- {
		v[bytesOf(6)] = bytesOf(300)
	}
	return v
}

// TestPropPackRoundTrip: Unpack(Pack(v)) == v for arbitrary Values, the
// packed form survives ParsePacked unchanged, and Get agrees with indexing.
func TestPropPackRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		v := randValue(rand.New(rand.NewSource(seed)))
		p := Pack(v)
		if !p.Unpack().Equal(v) {
			return false
		}
		back, err := ParsePacked([]byte(p.Block()))
		if err != nil || back != p {
			return false
		}
		for k, want := range v {
			if p.Get(k) != want {
				return false
			}
		}
		return p.Get("\xffabsent") == ""
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []Value{nil, {}, {"": ""}, {"a": "", "": "x"}} {
		if got := Pack(v).Unpack(); !got.Equal(v) || got == nil {
			t.Fatalf("Pack(%#v) unpacks to %#v", v, got)
		}
	}
}

// TestPropPackedEquality: two Values pack to the same bytes exactly when
// Value.Equal holds — the property that lets the store compare versions
// without unpacking them.
func TestPropPackedEquality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randValue(rng)
		b := a.Clone()
		switch rng.Intn(4) {
		case 0: // identical
		case 1:
			b["extra"] = ""
		case 2:
			for k := range b {
				b[k] += "x"
				break
			}
		case 3:
			b = randValue(rng)
		}
		return (Pack(a) == Pack(b)) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestPackAttrsMatchesPack pins the map-free constructor to the map one.
func TestPackAttrsMatchesPack(t *testing.T) {
	if got, want := PackAttrs(), Pack(nil); got != want {
		t.Fatalf("PackAttrs() = %q, want %q", got.Block(), want.Block())
	}
	long := strings.Repeat("v", 300) // a two-byte length prefix
	got := PackAttrs("", "e", "a", "", "b", long)
	if want := Pack(Value{"": "e", "a": "", "b": long}); got != want {
		t.Fatalf("PackAttrs = %q, want %q", got.Block(), want.Block())
	}
	for name, kv := range map[string][]string{
		"odd":        {"a"},
		"descending": {"b", "1", "a", "2"},
		"duplicate":  {"a", "1", "a", "2"},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("PackAttrs(%s) did not panic", name)
				}
			}()
			PackAttrs(kv...)
		}()
	}
}

// TestParsePackedRejects lists the malformed blocks by hand; FuzzParsePacked
// searches for the ones nobody thought of.
func TestParsePackedRejects(t *testing.T) {
	for name, block := range map[string]string{
		"empty":            "",
		"truncated count":  "\x80",
		"overlong count":   "\x80\x80\x80\x80\x80\x80\x80\x80\x80\x80\x01",
		"padded count":     "\x80\x00",
		"padded length":    "\x01\x81\x00a\x00",
		"lying count":      "\x05\x01a\x01b",
		"huge count":       "\xff\xff\xff\xff\x0f",
		"lying attr len":   "\x01\x09a\x01b",
		"lying value len":  "\x01\x01a\x7fb",
		"missing value":    "\x01\x01a",
		"trailing bytes":   "\x01\x01a\x01b\x00",
		"descending attrs": "\x02\x01b\x00\x01a\x00",
		"duplicate attrs":  "\x02\x01a\x00\x01a\x00",
	} {
		if p, err := ParsePacked([]byte(block)); err == nil {
			t.Errorf("%s: accepted as %v", name, p.Unpack())
		}
	}
}

// FuzzParsePacked: arbitrary bytes never panic the decoder, and whatever it
// accepts is canonical — Unpack and Pack reproduce the same bytes, and no
// map is sized by a count the input merely claims.
func FuzzParsePacked(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(Pack(nil).Block()))
	f.Add([]byte(Pack(Value{"v": "hello"}).Block()))
	f.Add([]byte(PackAttrs("nextBal", "0", "seq", "4", "voteBal", "0", "voteVal", "\x00\xff").Block()))
	f.Add([]byte("\xff\xff\xff\xff\x0f\x01a"))
	f.Add([]byte("\x02\x01b\x00\x01a\x00"))
	f.Fuzz(func(t *testing.T, block []byte) {
		p, err := ParsePacked(block)
		if err != nil {
			return
		}
		v := p.Unpack()
		if len(v) > len(block)/2 {
			t.Fatalf("%d attributes out of %d bytes", len(v), len(block))
		}
		if again := Pack(v); again != p {
			t.Fatalf("accepted block %q is not canonical: repacks to %q", block, again.Block())
		}
		for k, want := range v {
			if got := p.Get(k); got != want {
				t.Fatalf("Get(%q) = %q, Unpack says %q", k, got, want)
			}
		}
	})
}
