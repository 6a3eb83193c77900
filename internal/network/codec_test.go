package network

import (
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// allKinds covers every protocol kind plus an unknown one (string-encoded).
var allKinds = append(append([]Kind(nil), kindTable...), Kind("future-kind"))

// randMessage builds a random Message exercising every field.
func randMessage(rng *rand.Rand, kind Kind) Message {
	randStr := func(n int) string {
		const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-/"
		b := make([]byte, rng.Intn(n))
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	m := Message{
		Kind:     kind,
		Group:    randStr(12),
		Pos:      rng.Int63n(1 << 40),
		Ballot:   rng.Int63n(1<<40) - (1 << 20),
		TS:       rng.Int63n(1<<40) - 2,
		Key:      randStr(20),
		Value:    randStr(40),
		Verdict:  Verdict(rng.Intn(int(verdictEnd))),
		Err:      randStr(10),
		Epoch:    rng.Int63n(1 << 20),
		OK:       rng.Intn(2) == 0,
		Found:    rng.Intn(2) == 0,
		Combined: rng.Intn(2) == 0,
	}
	if n := rng.Intn(64); n > 0 {
		m.Payload = make([]byte, n)
		rng.Read(m.Payload)
	}
	for i, n := 0, rng.Intn(10); i < n; i++ {
		m.Keys = append(m.Keys, randStr(16))
		m.Vals = append(m.Vals, randStr(16))
		m.Founds = append(m.Founds, rng.Intn(2) == 0)
	}
	return m
}

// msgEqual compares messages treating nil and empty slices as equal (the
// codec does not preserve that distinction).
func msgEqual(a, b Message) bool {
	norm := func(m *Message) {
		if len(m.Payload) == 0 {
			m.Payload = nil
		}
		if len(m.Keys) == 0 {
			m.Keys = nil
		}
		if len(m.Vals) == 0 {
			m.Vals = nil
		}
		if len(m.Founds) == 0 {
			m.Founds = nil
		}
	}
	norm(&a)
	norm(&b)
	return reflect.DeepEqual(a, b)
}

// TestBinaryCodecRoundTrip round-trips random messages of every kind.
func TestBinaryCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range allKinds {
		for i := 0; i < 50; i++ {
			m := randMessage(rng, kind)
			got, err := UnmarshalBinary(MarshalBinary(m))
			if err != nil {
				t.Fatalf("kind %s: decode: %v", kind, err)
			}
			if !msgEqual(m, got) {
				t.Fatalf("kind %s round trip:\n in: %+v\nout: %+v", kind, m, got)
			}
		}
	}
}

// TestWireGolden pins the wire format across the change that gave refusals a
// verdict: the bytes the encoder before it produced for a request, an OK reply
// and an envelope still decode, and re-encode to themselves — no byte added,
// version 0xB2 kept — and a refusal's verdict rides the flags byte (0x30: code
// 6 above the three bools).
func TestWireGolden(t *testing.T) {
	for _, g := range []struct {
		name, hex string
		msg       Message
	}{
		{"accept request", "010001670e82800800040000000b656e7472792d6279746573000000",
			Message{Kind: KindAccept, Group: "g", Pos: 7, Ballot: 65537, Epoch: 2, Payload: []byte("entry-bytes")}},
		{"OK value reply", "0e030167000052000002763100000201610162020131000201",
			Message{Kind: KindValue, OK: true, Found: true, Group: "g", TS: 41, Value: "v1",
				Keys: []string{"a", "b"}, Vals: []string{"1", ""}, Founds: []bool{true, false}}},
		{"not-master refusal", "0d30000000000a0001560000000000",
			func() Message {
				m := Refuse(VerdictNotMaster, "")
				m.Value, m.Epoch = "V", 5
				return m
			}()},
	} {
		want, _ := hex.DecodeString(g.hex)
		got, err := UnmarshalBinary(want)
		if err != nil || !msgEqual(got, g.msg) {
			t.Errorf("%s: decoded %+v (%v), want %+v", g.name, got, err, g.msg)
		}
		if enc := MarshalBinary(g.msg); string(enc) != string(want) {
			t.Errorf("%s: encoded %x, want %s", g.name, enc, g.hex)
		}
	}
	const envHex = "b201ac020256310e05000000120600000000000000"
	want, _ := hex.DecodeString(envHex)
	env := envelope{ID: 300, From: "V1", Resp: true, Msg: Message{Kind: KindValue, OK: true, Combined: true, TS: 9, Epoch: 3}}
	got, err := decodeEnvelope(want, nil)
	if err != nil || got.ID != env.ID || got.From != env.From || got.Resp != env.Resp || !msgEqual(got.Msg, env.Msg) {
		t.Errorf("envelope: decoded %+v (%v), want %+v", got, err, env)
	}
	if enc := appendEnvelope(nil, env); string(enc) != string(want) {
		t.Errorf("envelope: encoded %x, want %s", enc, envHex)
	}
}

// decodeSlack is what one decode may allocate beyond a multiple of the
// datagram's length: the error it returns, and whatever the test binary's
// other goroutines allocate meanwhile.
const decodeSlack = 16 << 10

// FuzzUnmarshalBinary: a datagram is whatever an unauthenticated peer sends.
// Decoding arbitrary bytes returns a message or ErrBadWire, never panics, and
// allocates by the bytes that arrived — a list header of 16 bytes per element
// of at least one byte is the steepest rate — not by the counts and lengths
// they claim; and whatever decodes survives a re-encode.
func FuzzUnmarshalBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, kind := range allKinds {
		f.Add(MarshalBinary(randMessage(rng, kind)))
	}
	f.Add([]byte{byte(kindCode[KindRead]), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0x03}) // 65535 keys claimed, none sent
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := UnmarshalBinary(data)
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*len(data)+decodeSlack); grew > limit {
			t.Fatalf("decoding %d bytes allocated %d, limit %d", len(data), grew, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrBadWire) {
				t.Fatalf("decode error %v is not ErrBadWire", err)
			}
			return
		}
		back, err := UnmarshalBinary(MarshalBinary(m))
		if err != nil || !msgEqual(m, back) {
			t.Fatalf("decoded %+v does not survive a re-encode: %+v (%v)", m, back, err)
		}
	})
}

// TestBinaryEnvelopeRoundTrip round-trips full envelopes, both with fresh
// allocations and through one reused pooled decoder (whose scratch carries
// over between messages and must never leak state from one into the next).
func TestBinaryEnvelopeRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var dec decoder
	for i := 0; i < 200; i++ {
		env := envelope{
			ID:   rng.Uint64(),
			From: "dc-1",
			Resp: rng.Intn(2) == 0,
			Msg:  randMessage(rng, allKinds[rng.Intn(len(allKinds))]),
		}
		data := appendEnvelope(nil, env)
		got, err := decodeEnvelope(data, nil)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if got.ID != env.ID || got.From != env.From || got.Resp != env.Resp || !msgEqual(got.Msg, env.Msg) {
			t.Fatalf("envelope round trip:\n in: %+v\nout: %+v", env, got)
		}
		pooled, err := decodeEnvelope(data, &dec)
		if err != nil {
			t.Fatalf("pooled decode: %v", err)
		}
		if pooled.ID != env.ID || pooled.From != env.From || pooled.Resp != env.Resp || !msgEqual(pooled.Msg, env.Msg) {
			t.Fatalf("pooled envelope round trip:\n in: %+v\nout: %+v", env, pooled)
		}
	}
}

// TestBinaryCodecTruncation checks that every prefix of a valid encoding
// errors rather than panicking or decoding silently.
func TestBinaryCodecTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMessage(rng, KindReadMulti)
	data := MarshalBinary(m)
	for n := 0; n < len(data); n++ {
		if _, err := UnmarshalBinary(data[:n]); err == nil {
			t.Fatalf("truncation at %d/%d decoded silently", n, len(data))
		}
	}
	env := appendEnvelope(nil, envelope{ID: 7, From: "A", Msg: m})
	for n := 0; n < len(env); n++ {
		if _, err := decodeEnvelope(env[:n], nil); err == nil {
			t.Fatalf("envelope truncation at %d/%d decoded silently", n, len(env))
		}
	}
}

// TestBinaryCodecCorruption flips bytes and random garbage through the
// decoder; it must error or produce some message, never panic. Both decode
// modes (fresh and pooled scratch) face the same hostile input.
func TestBinaryCodecCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	base := MarshalBinary(randMessage(rng, KindAccept))
	var dec decoder
	for i := 0; i < 2000; i++ {
		data := append([]byte(nil), base...)
		for flips := rng.Intn(4) + 1; flips > 0; flips-- {
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		}
		UnmarshalBinary(data) // must not panic
	}
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(96))
		rng.Read(data)
		UnmarshalBinary(data)     // must not panic
		decodeEnvelope(data, nil) // must not panic
		if len(data) > 0 {
			data[0] = wireVersion
			decodeEnvelope(data, &dec) // forced version byte; must not panic
		}
	}
}

// TestBinaryCodecTrailingBytes rejects valid encodings with appended junk.
func TestBinaryCodecTrailingBytes(t *testing.T) {
	m := Message{Kind: KindStatus, OK: true}
	data := append(MarshalBinary(m), 0x00)
	if _, err := UnmarshalBinary(data); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

// TestBinaryCodecOversizedCounts rejects length fields beyond the caps
// without allocating unboundedly.
func TestBinaryCodecOversizedCounts(t *testing.T) {
	var data []byte
	data = append(data, byte(kindCode[KindRead]), 0)
	data = appendUvarint(data, uint64(wireMaxStr)+1) // group longer than cap
	if _, err := UnmarshalBinary(data); err == nil {
		t.Fatal("oversized string length accepted")
	}
}

// TestBinaryCodecRejectsLegacyVersions pins the retirement of the pre-epoch
// 0xB1 layout and the JSON envelope: datagrams in either format are dropped,
// not decoded.
func TestBinaryCodecRejectsLegacyVersions(t *testing.T) {
	env := appendEnvelope(nil, envelope{ID: 1, From: "A", Msg: Message{Kind: KindRead}})
	legacy := append([]byte(nil), env...)
	legacy[0] = 0xB1
	if _, err := decodeEnvelope(legacy, nil); err == nil {
		t.Fatal("legacy 0xB1 envelope accepted")
	}
	if _, err := decodeEnvelope([]byte(`{"id":1,"from":"A","msg":{"k":"read"}}`), nil); err == nil {
		t.Fatal("JSON envelope accepted")
	}
}

// TestDecoderInternReuse pins the intern table's core property: decoding the
// same strings twice through one decoder yields the identical string object
// (no second allocation), and the table never grows past its entry cap.
func TestDecoderInternReuse(t *testing.T) {
	var dec decoder
	key := []byte("entity-group")
	if got := dec.intern(key); got != "entity-group" {
		t.Fatalf("intern = %q", got)
	}
	// A warm intern is a map hit: no allocation for the lookup or result.
	if allocs := testing.AllocsPerRun(100, func() {
		if dec.intern(key) != "entity-group" {
			t.Fatal("intern changed value")
		}
	}); allocs != 0 {
		t.Fatalf("warm intern allocates %.1f/op, want 0", allocs)
	}
	long := make([]byte, internMaxLen+1)
	if got := dec.intern(long); len(got) != len(long) {
		t.Fatal("over-length string mangled")
	}
	for i := 0; i < 3*internMaxEntries; i++ {
		dec.intern([]byte{byte(i), byte(i >> 8), byte(i >> 16)})
	}
	if len(dec.interned) > internMaxEntries {
		t.Fatalf("intern table grew to %d entries (cap %d)", len(dec.interned), internMaxEntries)
	}
}

// benchEnvelope is a representative read-path envelope for codec benchmarks.
func benchEnvelope() envelope {
	return envelope{
		ID:   123456789,
		From: "V1",
		Msg: Message{
			Kind:  KindReadMulti,
			Group: "entity-group",
			TS:    98765,
			Keys:  []string{"attr1", "attr17", "attr42", "attr63", "attr80", "attr91", "attr7", "attr33"},
		},
	}
}

// BenchmarkMessageCodec measures one encode+decode cycle of a representative
// multi-key read request over the pooled hot path: a reused encode buffer
// and a reused decoder, exactly as the UDP read loop runs it. Steady state
// must be 0 allocs/op (pinned by TestEnvelopeCodecZeroAlloc).
func BenchmarkMessageCodec(b *testing.B) {
	env := benchEnvelope()
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		var dec decoder
		buf := make([]byte, 0, 256)
		for i := 0; i < b.N; i++ {
			buf = appendEnvelope(buf[:0], env)
			if _, err := decodeEnvelope(buf, &dec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMessageCodecSize is not a speed benchmark: it reports the encoded
// size of the representative envelope.
func BenchmarkMessageCodecSize(b *testing.B) {
	env := benchEnvelope()
	bin := appendEnvelope(nil, env)
	for i := 0; i < b.N; i++ {
		_ = bin
	}
	b.ReportMetric(float64(len(bin)), "binary-bytes")
}
