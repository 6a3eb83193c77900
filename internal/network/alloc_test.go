package network

import (
	"context"
	"net/netip"
	"testing"
	"time"
)

// hotKindMessages builds one representative message per hot protocol kind,
// exercising the fields that kind actually carries on the wire. Steady state
// means the same groups, keys, and markers repeat — which is exactly what
// the decoder's intern table and slice scratch exploit.
func hotKindMessages() []Message {
	payload := []byte("wal-entry-bytes-0123456789abcdef")
	keys := []string{"attr1", "attr17", "attr42", "attr63", "attr80", "attr91", "attr7", "attr33"}
	vals := []string{"v1", "v17", "v42", "v63", "v80", "v91", "v7", "v33"}
	founds := []bool{true, true, false, true, true, false, true, true}
	return []Message{
		{Kind: KindPrepare, Group: "entity-group", Pos: 4242, Ballot: 17},
		{Kind: KindAccept, Group: "entity-group", Pos: 4242, Ballot: 17, Payload: payload},
		{Kind: KindApply, Group: "entity-group", Pos: 4242, Ballot: 17, Payload: payload},
		{Kind: KindReadPos, Group: "entity-group"},
		{Kind: KindRead, Group: "entity-group", Key: "attr17", TS: 4242},
		{Kind: KindReadMulti, Group: "entity-group", TS: ResolvePos, Keys: keys},
		{Kind: KindClaimLeader, Group: "entity-group", Pos: 4242, Value: "V1"},
		{Kind: KindFetchLog, Group: "entity-group", Pos: 4242},
		{Kind: KindSubmit, Group: "entity-group", Payload: payload},
		{Kind: KindLastVote, Ballot: 17, Payload: payload, OK: true},
		{Kind: KindStatus, OK: true, Epoch: 3, TS: 4242, Combined: true},
		{Kind: KindValue, Value: "v17", Found: true, TS: 4242, OK: true,
			Keys: keys, Vals: vals, Founds: founds},
	}
}

// TestEnvelopeCodecZeroAlloc pins the tentpole property of the wire path:
// steady-state envelope encode+decode of every hot kind runs at 0 allocs/op
// when the pooled encode buffer and decoder scratch are warm.
func TestEnvelopeCodecZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	for _, msg := range hotKindMessages() {
		env := envelope{ID: 987654321, From: "V1", Msg: msg}
		var dec decoder
		buf := make([]byte, 0, 16)
		// Warm the scratch: grow the buffer, populate the intern table, and
		// size the Keys/Vals/Founds backing arrays.
		buf = appendEnvelope(buf[:0], env)
		if _, err := decodeEnvelope(buf, &dec); err != nil {
			t.Fatalf("kind %s: %v", msg.Kind, err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			buf = appendEnvelope(buf[:0], env)
			if _, err := decodeEnvelope(buf, &dec); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("kind %s: encode+decode allocates %.1f/op, want 0", msg.Kind, allocs)
		}
	}
}

// TestUDPServeSteadyAllocs pins the pooled UDP read loop: one inbound
// request — sniff, pooled decode, inline handler, pooled reply encode, send
// — costs at most the serve closure's fixed bookkeeping (the reply callback
// and its once-guard), never per-field garbage.
func TestUDPServeSteadyAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	u, err := NewUDPAsync("S", "127.0.0.1:0", nil,
		func(from string, req Message, reply func(Message)) {
			reply(Message{Kind: KindStatus, OK: true, TS: req.TS})
		})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	// Sever the socket write so the pin measures the serve path alone.
	u.writeTo = func(b []byte, addr netip.AddrPort) (int, error) { return len(b), nil }

	req := appendEnvelope(nil, envelope{
		ID: 7, From: "C",
		Msg: Message{Kind: KindReadMulti, Group: "entity-group", TS: ResolvePos,
			Keys: []string{"attr1", "attr17", "attr42", "attr63"}},
	})
	raddr := netip.MustParseAddrPort("127.0.0.1:9999")
	u.handleDatagram(req, raddr) // warm the decoder and encode-buffer pools
	allocs := testing.AllocsPerRun(200, func() {
		u.handleDatagram(req, raddr)
	})
	const maxServeAllocs = 3
	if allocs > maxServeAllocs {
		t.Fatalf("request serve allocates %.1f/op, want <= %d", allocs, maxServeAllocs)
	}
}

// TestUDPServeReplyIdempotent pins the AsyncHandler contract: extra reply
// calls are dropped, and the first one wins.
func TestUDPServeReplyIdempotent(t *testing.T) {
	var sent int
	u, err := NewUDPAsync("S", "127.0.0.1:0", nil,
		func(from string, req Message, reply func(Message)) {
			reply(Message{Kind: KindStatus, OK: true})
			reply(Message{Kind: KindStatus, OK: false}) // must be ignored
		})
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	u.writeTo = func(b []byte, addr netip.AddrPort) (int, error) {
		env, err := decodeEnvelope(b, nil)
		if err != nil {
			t.Errorf("reply not decodable: %v", err)
		} else if !env.Msg.OK {
			t.Error("second reply overwrote the first")
		}
		sent++
		return len(b), nil
	}
	req := appendEnvelope(nil, envelope{ID: 3, From: "C", Msg: Message{Kind: KindReadPos}})
	u.handleDatagram(req, netip.MustParseAddrPort("127.0.0.1:9999"))
	if sent != 1 {
		t.Fatalf("sent %d replies, want 1", sent)
	}
}

// TestUDPSendAllocs pins a Send on both paths. The pending call and its
// channel are pooled, so a round trip to a peer allocates only what the
// peer's serve path does (its reply callback and once-guard, as
// TestUDPServeSteadyAllocs pins), and a self-send only the reply callback
// bound to its request ID.
func TestUDPSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	answer := func(from string, req Message, reply func(Message)) {
		reply(Message{Kind: KindStatus, OK: true, TS: req.TS})
	}
	peer := udpTo(t, "B", answer)
	a := udpTo(t, "A", answer, peer)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := Message{Kind: KindReadPos, Group: "entity-group"}
	for _, c := range []struct {
		to  string
		max float64
	}{{"B", 2}, {"A", 1}} {
		if _, err := a.Send(ctx, c.to, req); err != nil { // warm the pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := a.Send(ctx, c.to, req); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("Send to %s allocates %.1f/op, want <= %.0f", c.to, allocs, c.max)
		}
	}
}
