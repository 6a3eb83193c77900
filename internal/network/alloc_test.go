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
// request — sniff, pooled decode, inline handler, pooled replier and reply
// encode, send — allocates nothing.
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
	const maxServeAllocs = 0
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

// TestUDPSendAllocs pins a Send on both paths. The pending call and the
// waiter's channel are pooled, and so are the peer's decoder and replier
// (TestUDPServeSteadyAllocs), so a round trip to a peer allocates nothing;
// nor does a self-send, whose reply is a pooled replier's too.
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
	}{{"B", 0}, {"A", 0}} {
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

// TestSimSendAllocs pins a Send from one Sim endpoint to a peer: the round
// trip runs on the switch — encode, the switch's pooled copy, the delivery
// heap, the peer's pooled decode and replier, the response's decode — and
// allocates at most maxSimSendAllocs. Before the switch, a Sim delivered the
// struct itself through a goroutine, two channels, a reply closure and two
// sleeps per message: 10.0 allocs/op.
func TestSimSendAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	sim := NewSim(NewTopology("A", "B"), SimConfig{Seed: 1, Scale: 0.01})
	defer sim.Close()
	answer := func(from string, req Message, reply func(Message)) {
		reply(Message{Kind: KindStatus, OK: true, TS: req.TS})
	}
	a := sim.EndpointAsync("A", answer)
	sim.EndpointAsync("B", answer)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	req := Message{Kind: KindReadPos, Group: "entity-group"}
	if _, err := a.Send(ctx, "B", req); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := a.Send(ctx, "B", req); err != nil {
			t.Fatal(err)
		}
	})
	const maxSimSendAllocs = 0
	if allocs > maxSimSendAllocs {
		t.Fatalf("Send over the switch allocates %.1f/op, want <= %d", allocs, maxSimSendAllocs)
	}
}
