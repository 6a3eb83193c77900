package disk

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"runtime"
	"strings"
	"testing"

	"paxoscp/internal/kvstore"
)

// The record codec lives beside kvstore.Mutation (kvstore/record.go) and is
// shared with snapshots and state transfer; these tests pin it as the WAL
// uses it, through its exported entry points. maxRecordBytes and bodyStep
// repeat the codec's two bounds.
const (
	maxRecordBytes = 64 << 20
	bodyStep       = 64 << 10
)

// decodePayload hands payload to the codec's payload decoder the only way
// bytes reach it: inside a record whose checksum holds.
func decodePayload(payload []byte) (kvstore.Mutation, error) {
	rec := binary.AppendUvarint(nil, uint64(len(payload)))
	rec = binary.LittleEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	return kvstore.ReadRecord(bufio.NewReader(bytes.NewReader(append(rec, payload...))))
}

// goldenRecords are AppendRecord's bytes as emitted by commit b87221d, when
// a version was a map the encoder sorted and walked. The store now hands the
// encoder the attribute block ready-made; a data directory written before
// the change must stay readable and one written after it must be
// indistinguishable, so these bytes may never move.
var goldenRecords = []struct {
	m   kvstore.Mutation
	hex string
}{
	{kvstore.Mutation{Op: kvstore.OpWrite, Key: "data/g0/k1", TS: 7, Value: kvstore.Pack(kvstore.Value{"v": "hello"})},
		"164fd27ab0010a646174612f67302f6b310e0101760568656c6c6f"},
	{kvstore.Mutation{Op: kvstore.OpWrite, Key: "paxos/g0/12", TS: 3,
		Value: kvstore.Pack(kvstore.Value{"seq": "4", "nextBal": "0", "voteBal": "0", "voteVal": "\x00\x01\xffbytes"})},
		"3a817d5474010b7061786f732f67302f31320604076e65787442616c013003736571013407766f746542616c013007766f746556616c080001ff6279746573"},
	{kvstore.Mutation{Op: kvstore.OpWrite, Key: "empty", TS: 0, Value: kvstore.Pack(kvstore.Value{})},
		"0994f5d9920105656d7074790000"},
	{kvstore.Mutation{Op: kvstore.OpWrite, Key: "k", TS: -1 << 40, Value: kvstore.Pack(kvstore.Value{"": "", "a": ""})},
		"0f9327bbd601016bffffffffff3f020000016100"},
	{kvstore.Mutation{Op: kvstore.OpDelete, Key: "log/g0/5"},
		"0af8c2483602086c6f672f67302f35"},
	{kvstore.Mutation{Op: kvstore.OpGC, Key: "data/g0/k1", TS: 9},
		"0d6759bd33030a646174612f67302f6b3112"},
}

func TestRecordBytesGolden(t *testing.T) {
	for _, g := range goldenRecords {
		got := kvstore.AppendRecord(nil, g.m)
		if hex.EncodeToString(got) != g.hex {
			t.Errorf("%v %s@%d encodes to\n  %x, want\n  %s", g.m.Op, g.m.Key, g.m.TS, got, g.hex)
		}
		back, err := kvstore.ReadRecord(bufio.NewReader(bytes.NewReader(got)))
		if err != nil || back != g.m {
			t.Errorf("%v %s@%d reads back as %+v (%v)", g.m.Op, g.m.Key, g.m.TS, back, err)
		}
	}
	// The acceptor's map-free constructor must land on the same bytes.
	direct := goldenRecords[1].m
	direct.Value = kvstore.PackAttrs("nextBal", "0", "seq", "4", "voteBal", "0", "voteVal", "\x00\x01\xffbytes")
	if got := kvstore.AppendRecord(nil, direct); hex.EncodeToString(got) != goldenRecords[1].hex {
		t.Errorf("PackAttrs row encodes to %x", got)
	}
	// OpReplace shares OpWrite's layout under its own op byte.
	w, r := goldenRecords[0].m, goldenRecords[0].m
	r.Op = kvstore.OpReplace
	wb, rb := kvstore.AppendRecord(nil, w), kvstore.AppendRecord(nil, r)
	if back, err := kvstore.ReadRecord(bufio.NewReader(bytes.NewReader(rb))); err != nil || back != r {
		t.Errorf("OpReplace reads back as %+v (%v)", back, err)
	}
	const opAt = 5 // length prefix (1) + crc (4)
	if len(wb) != len(rb) || !bytes.Equal(wb[opAt+1:], rb[opAt+1:]) || rb[opAt] != byte(kvstore.OpReplace) {
		t.Errorf("OpReplace record %x does not mirror OpWrite record %x", rb, wb)
	}
}

// allocatedBy reports the bytes fn allocated (other goroutines' allocations
// included; the tests using it run nothing else).
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// readSlack is what reading a segment may allocate beyond a small multiple of
// its length: one bodyStep for a body that never arrives, the bufio.Reader,
// and the error values.
const readSlack = bodyStep + 16<<10

// TestLengthPrefixBoundsAllocation: a length prefix past maxRecordBytes is
// refused as a torn record before anything is allocated for it, and one just
// under it — plausible, so the body is read — still allocates by what the
// short tail delivers, not by the 64 MB it claims.
func TestLengthPrefixBoundsAllocation(t *testing.T) {
	for _, claim := range []uint64{maxRecordBytes + 1, maxRecordBytes} {
		seg := binary.AppendUvarint(nil, claim)
		seg = append(seg, "crc.and a few payload bytes"...)
		var err error
		grew := allocatedBy(func() { _, err = kvstore.ReadRecord(bufio.NewReader(bytes.NewReader(seg))) })
		if !errors.Is(err, kvstore.ErrTorn) {
			t.Fatalf("claim %d: err = %v, want a torn-record error", claim, err)
		}
		if grew > readSlack {
			t.Fatalf("claim %d: reading a %d-byte segment allocated %d bytes", claim, len(seg), grew)
		}
	}
}

// TestLargeRecordRoundTrip takes a record through every growth step of
// readBody: a body several times bodyStep reads back intact, and a tear
// anywhere inside it is still a torn record.
func TestLargeRecordRoundTrip(t *testing.T) {
	m := kvstore.Mutation{Op: kvstore.OpWrite, Key: "big", TS: 3,
		Value: kvstore.PackAttrs("v", strings.Repeat("0123456789abcdef", 5*bodyStep/16))}
	rec := kvstore.AppendRecord(nil, m)
	back, err := kvstore.ReadRecord(bufio.NewReader(bytes.NewReader(rec)))
	if err != nil || back != m {
		t.Fatalf("large record did not round-trip: err %v", err)
	}
	for _, cut := range []int{bodyStep / 2, bodyStep + 9, 3 * bodyStep, len(rec) - 1} {
		if _, err := kvstore.ReadRecord(bufio.NewReader(bytes.NewReader(rec[:cut]))); !errors.Is(err, kvstore.ErrTorn) {
			t.Fatalf("record cut at %d of %d: err = %v, want a torn-record error", cut, len(rec), err)
		}
	}
}

func fuzzSeeds(f *testing.F, payloadOnly bool) {
	for _, g := range goldenRecords {
		rec := kvstore.AppendRecord(nil, g.m)
		if payloadOnly {
			rec = rec[5:] // these records all have a one-byte length prefix
		}
		f.Add(rec)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x7f})         // length prefix far past maxRecordBytes
	f.Add([]byte{1, 1, 'k', 0, 0xff, 0xff, 0xff, 0x0f}) // OpWrite claiming 2^28 attributes
}

// FuzzDecodePayload: a payload that passed its checksum is still only
// bytes. Whatever they hold, decoding returns a mutation or an error — no
// panic, nothing sized by a count or length the payload merely claims — and
// an accepted mutation re-encodes to the payload it came from.
func FuzzDecodePayload(f *testing.F) {
	fuzzSeeds(f, true)
	f.Fuzz(func(t *testing.T, payload []byte) {
		m, err := decodePayload(payload)
		if err != nil {
			return
		}
		if n := len(m.Value.Unpack()); n > len(payload) {
			t.Fatalf("%d attributes decoded from %d bytes", n, len(payload))
		}
		rec := kvstore.AppendRecord(nil, m)
		back, err := kvstore.ReadRecord(bufio.NewReader(bytes.NewReader(rec)))
		if err != nil || back != m {
			t.Fatalf("accepted mutation %+v does not survive a re-encode: %+v (%v)", m, back, err)
		}
	})
}

// FuzzReadRecord: a segment file is whatever the disk returns. Reading
// records off arbitrary bytes ends in EOF, a torn-record error or a
// corruption error, never a panic, and allocates by the bytes the segment
// holds — each body, its decoded key and value, a buffer at most doubled —
// plus a constant, whatever its length prefixes claim.
func FuzzReadRecord(f *testing.F) {
	fuzzSeeds(f, false)
	f.Add(binary.AppendUvarint(nil, maxRecordBytes)) // plausible length, no body
	f.Fuzz(func(t *testing.T, seg []byte) {
		ended := false
		grew := allocatedBy(func() {
			r := bufio.NewReader(bytes.NewReader(seg))
			for i := 0; i <= len(seg); i++ {
				// EOF, a torn record, or a checksum that held over a
				// malformed payload (corruption) all end the segment.
				if _, err := kvstore.ReadRecord(r); err != nil {
					ended = true
					return
				}
			}
		})
		if !ended {
			t.Fatalf("read more records than the segment has bytes (%d)", len(seg))
		}
		if limit := uint64(4*len(seg) + readSlack); grew > limit {
			t.Fatalf("reading a %d-byte segment allocated %d bytes, limit %d", len(seg), grew, limit)
		}
	})
}
