package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/wal"
)

// TestHandleSubmitRefusesNonCanonicalPayloads: a submit is one transaction
// as Encode writes it. Anything else — no transaction or two, a handoff,
// bytes trailing or cut short, write keys repeated or out of order — is
// refused as a bad payload before the pipeline sees it, so nothing is
// queued, placed or decided.
func TestHandleSubmitRefusesNonCanonicalPayloads(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	defer s.Close()
	txn := wal.Txn{ID: "t1", Origin: "A", ReadSet: []string{"r"}, Writes: map[string]string{"a": "1", "b": "2"}}
	one := string(wal.Encode(wal.NewEntry(txn)))
	swapped := strings.Replace(one, "\x01a\x011\x01b\x012", "\x01b\x012\x01a\x011", 1)
	repeated := strings.Replace(one, "\x01b\x012", "\x01a\x012", 1)
	if swapped == one || repeated == one {
		t.Fatal("the write pairs were not where the test expects them")
	}
	for _, c := range []struct{ name, payload string }{
		{"no transaction", string(wal.Encode(wal.NoOp()))},
		{"two transactions", string(wal.Encode(wal.NewEntry(txn, wal.Txn{ID: "t2", Writes: map[string]string{"c": "3"}})))},
		{"a handoff", string(wal.Encode(wal.NewHandoff(wal.HandoffIn, "g1", "g2", []string{"g2"})))},
		{"trailing bytes", one + "x"},
		{"truncated", one[:len(one)-1]},
		{"write keys out of order", swapped},
		{"write key repeated", repeated},
	} {
		resp := ask(t, s, "B", network.Message{Kind: network.KindSubmit, Group: "g", Payload: []byte(c.payload)})
		if resp.OK || resp.Err != "bad submit payload" {
			t.Errorf("%s: verdict %+v, want \"bad submit payload\"", c.name, resp)
		}
	}
	p := s.pipeline("g")
	if got, queued := windowState(p); len(got) != 0 || queued != 0 || p.issued != 0 {
		t.Errorf("after refusals: in flight %v, %d queued, issued %d; want nothing", got, queued, p.issued)
	}
	if d := s.log("g").DecidedMax(); d != 0 {
		t.Errorf("after refusals: decided through %d, want nothing", d)
	}
}

// TestHandleSubmitDecidesEncodeBytes: an epoch-stamped (v2) submit and a
// backfill (v3) one are accepted, and the entry each commits in is, byte for
// byte, what Encode writes for its transaction under the master's epoch.
func TestHandleSubmitDecidesEncodeBytes(t *testing.T) {
	services, _ := newServiceRing(t, 7, []string{"A", "B", "C"})
	a := services["A"]
	for _, c := range []struct {
		name   string
		submit wal.Entry
	}{
		{"epoch-stamped", wal.Entry{Epoch: 99, Txns: []wal.Txn{{ID: "v2", Origin: "B", ReadSet: []string{"x"},
			Writes: map[string]string{"k2": "a", "k1": "b"}}}}},
		{"backfill", wal.Entry{Txns: []wal.Txn{{ID: "v3", Origin: "g0", Backfill: true,
			Writes: map[string]string{"m": "x", "c": "y"}}}}},
	} {
		resp := ask(t, a, "B", network.Message{Kind: network.KindSubmit, Group: "g", Payload: wal.Encode(c.submit)})
		if !resp.OK {
			t.Fatalf("%s: verdict %+v, want committed", c.name, resp)
		}
		got, ok := a.log("g").EntryBytes(resp.TS)
		want := string(wal.Encode(wal.Entry{Epoch: resp.Epoch, Txns: c.submit.Txns}))
		if !ok || got != want {
			t.Errorf("%s: decided %q at %d, want %q", c.name, got, resp.TS, want)
		}
	}
}

// TestHandleSubmitAllocs pins what a submit costs the master up to the
// queue, on a memory-store service: one copy of the payload, which the
// transaction is read from and its entry later spliced from, the pending
// submission, and its budget's timer (time.AfterFunc: the timer and its
// callback). Nothing is decoded: no Txns slice, read set or write map.
func TestHandleSubmitAllocs(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	defer s.Close()
	p := s.pipeline("g")
	p.mu.Lock()
	p.running = true // no dispatcher: the submits stay queued
	p.mu.Unlock()
	txn := wal.Txn{ID: "V1-0-12345", Origin: "V1", ReadPos: 12344, Writes: make(map[string]string)}
	for _, k := range []string{"k00417", "k03312", "k05910", "k09051"} {
		txn.Writes[k] = strings.Repeat("q7", 20)
	}
	req := network.Message{Kind: network.KindSubmit, Group: "g", Payload: wal.Encode(wal.NewEntry(txn))}
	reply := func(network.Message) {}
	if allocs := testing.AllocsPerRun(100, func() { s.handleSubmit(req, reply) }); allocs != 4 {
		t.Errorf("handleSubmit allocates %.0f times, want 4", allocs)
	}
	if _, queued := windowState(p); queued != 101 {
		t.Errorf("%d submits queued, want 101", queued)
	}
}

// TestPipelineExpiredSubmitKeepsItsBytes: a submit's payload is valid only
// until it is answered — the transport then reuses the datagram buffer — but
// a submission answered by its budget's expiry still sits in the queue and
// is placed later. Its entry must be spliced from the master's own copy of
// the bytes, not from the buffer the transport has since overwritten.
func TestPipelineExpiredSubmitKeepsItsBytes(t *testing.T) {
	services, _ := newServiceRing(t, 3, []string{"A", "B", "C"}, WithServiceTimeout(50*time.Millisecond))
	a := services["A"]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	epoch, err := a.ClaimMastership(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	p := a.pipeline("g")
	p.mu.Lock()
	p.running = true // park the dispatcher until the budget has expired
	p.mu.Unlock()
	txn := wal.Txn{ID: "late", Origin: "B", ReadPos: 1, Writes: map[string]string{"k": "v"}}
	buf := wal.Encode(wal.NewEntry(txn))
	reply, ch := collectReply()
	a.handleSubmit(network.Message{Kind: network.KindSubmit, Group: "g", Payload: buf}, reply)
	if resp := awaitReply(t, ch); resp.OK || !strings.Contains(resp.Err, "timed out") {
		t.Fatalf("verdict %+v, want the budget's timeout", resp)
	}
	for i := range buf {
		buf[i] = 0xAA // what reusing the answered request's buffer does
	}
	p.mu.Lock()
	p.running = false
	p.kickLocked()
	p.mu.Unlock()
	want := string(wal.Encode(wal.Entry{Epoch: epoch, Txns: []wal.Txn{txn}}))
	for {
		for pos := int64(2); pos <= a.log("g").DecidedMax(); pos++ {
			if got, ok := a.log("g").EntryBytes(pos); ok {
				if r, err := wal.NewReader(got); err != nil || r.Len() > 0 {
					if got != want {
						t.Fatalf("decided %q at %d, want %q", got, pos, want)
					}
					return
				}
			}
		}
		if ctx.Err() != nil {
			t.Fatal("the expired submission was never placed")
		}
		time.Sleep(time.Millisecond)
	}
}
