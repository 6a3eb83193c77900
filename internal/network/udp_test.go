package network

import (
	"context"
	"errors"
	"maps"
	"math"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newUDPPair starts two UDP endpoints on ephemeral localhost ports and wires
// their peer tables together.
func newUDPPair(t *testing.T) (*UDP, *UDP) {
	t.Helper()
	a, err := NewUDPAsync("A", "127.0.0.1:0", nil, echoHandler("A"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewUDPAsync("B", "127.0.0.1:0", nil, echoHandler("B"))
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close(); b.Close() })
	if err := a.SetPeer("B", b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := b.SetPeer("A", a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	if err := a.SetPeer("A", a.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	return a, b
}

func TestUDPRequestResponse(t *testing.T) {
	a, _ := newUDPPair(t)
	resp, err := a.Send(context.Background(), "B", Message{Kind: KindPrepare, Pos: 11})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if !resp.OK || resp.Err != "B<-A" || resp.Pos != 11 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestUDPSelfSend(t *testing.T) {
	a, _ := newUDPPair(t)
	resp, err := a.Send(context.Background(), "A", Message{Kind: KindRead})
	if err != nil {
		t.Fatalf("self send: %v", err)
	}
	if resp.Err != "A<-A" {
		t.Fatalf("resp = %+v", resp)
	}
}

// selfUDP opens a transport named S that knows its own address, with its
// socket writes counted instead of sent.
func selfUDP(t *testing.T, h AsyncHandler) (*UDP, *atomic.Int64) {
	t.Helper()
	u, err := NewUDPAsync("S", "127.0.0.1:0", nil, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	if err := u.SetPeer("S", u.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	wrote := new(atomic.Int64)
	u.writeTo = func(b []byte, addr netip.AddrPort) (int, error) {
		wrote.Add(1)
		return len(b), nil
	}
	return u, wrote
}

// TestUDPLocalDeliveryIsACall: a request a transport sends to itself is
// handed to its handler — from its own name, with the caller's Message, not
// a decoded copy — and the handler's reply is what Send returns. No datagram
// is written, by the hook's count and by the transport's own.
func TestUDPLocalDeliveryIsACall(t *testing.T) {
	payload := []byte("entry")
	u, wrote := selfUDP(t, func(from string, req Message, reply func(Message)) {
		shared := len(req.Payload) > 0 && &req.Payload[0] == &payload[0]
		reply(Message{Kind: KindStatus, OK: shared, Value: from, Pos: req.Pos})
		reply(Message{Kind: KindStatus, Value: "second reply"}) // must be ignored
	})
	resp, err := u.Send(context.Background(), "S", Message{Kind: KindAccept, Pos: 7, Payload: payload})
	if err != nil {
		t.Fatalf("self send: %v", err)
	}
	if !resp.OK || resp.Value != u.Local() || resp.Pos != 7 {
		t.Fatalf("resp = %+v, want the handler's first reply, from %q, over the caller's payload", resp, u.Local())
	}
	if w, r := u.Datagrams(); wrote.Load() != 0 || w != 0 || r != 0 {
		t.Fatalf("self send moved datagrams: hook saw %d, transport counted %d written, %d read", wrote.Load(), w, r)
	}
}

// TestUDPLocalDeliveryTimeout: a handler that does not reply costs the local
// caller what it costs a remote one — ErrTimeout at the deadline — and its
// reply, when it comes, goes nowhere.
func TestUDPLocalDeliveryTimeout(t *testing.T) {
	var late []func(Message)
	u, _ := selfUDP(t, func(from string, req Message, reply func(Message)) { late = append(late, reply) })
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		resp, err := u.Send(ctx, "S", Message{Kind: KindReadPos})
		cancel()
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("send %d = %+v %v, want ErrTimeout", i, resp, err)
		}
		// Too late, and twice: dropped, and not taken for the next Send's.
		late[i](Message{Kind: KindStatus, OK: true})
		late[i](Message{Kind: KindStatus, OK: true})
	}
}

// TestUDPLocalDeliveryAfterClose: a closed transport refuses a self-addressed
// Send like any other, without calling the handler.
func TestUDPLocalDeliveryAfterClose(t *testing.T) {
	u, _ := selfUDP(t, func(from string, req Message, reply func(Message)) {
		t.Error("handler called on a closed transport")
		reply(Message{})
	})
	u.Close()
	if _, err := u.Send(context.Background(), "S", Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

// TestUDPSelfSendWithoutHandlerUsesSocket: a transport with no handler — a
// client's — has nobody to call, so a request to its own address is a
// datagram like any other.
func TestUDPSelfSendWithoutHandlerUsesSocket(t *testing.T) {
	u, err := NewUDPAsync("S", "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()
	if err := u.SetPeer("S", u.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	resp, err := u.Send(context.Background(), "S", Message{Kind: KindReadPos})
	if err != nil || resp.OK || resp.Err != "no handler" {
		t.Fatalf("resp = %+v %v, want the read loop's \"no handler\" refusal", resp, err)
	}
	if w, r := u.Datagrams(); w != 2 || r != 2 {
		t.Fatalf("request and refusal: %d datagrams written, %d read, want 2 and 2", w, r)
	}
}

func TestUDPUnknownPeer(t *testing.T) {
	a, _ := newUDPPair(t)
	if _, err := a.Send(context.Background(), "Z", Message{}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestUDPTimeoutOnDeadPeer(t *testing.T) {
	a, b := newUDPPair(t)
	b.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := a.Send(ctx, "B", Message{}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestUDPClosedSend(t *testing.T) {
	a, _ := newUDPPair(t)
	a.Close()
	if _, err := a.Send(context.Background(), "B", Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	// Double close is safe.
	if err := a.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestUDPConcurrentRequests(t *testing.T) {
	a, _ := newUDPPair(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := a.Send(context.Background(), "B", Message{Pos: int64(i)})
			if err != nil {
				errs <- err
				return
			}
			if resp.Pos != int64(i) {
				errs <- errors.New("response correlation mixed up")
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestUDPPeersListing(t *testing.T) {
	a, _ := newUDPPair(t)
	peers := a.Peers()
	if len(peers) != 2 || peers[0] != "A" || peers[1] != "B" {
		t.Fatalf("Peers = %v", peers)
	}
	if a.Local() != "A" {
		t.Fatalf("Local = %q", a.Local())
	}
	// The list is shared, not copied: a peer added later must not show up in
	// — or reorder — a slice handed out before.
	if err := a.SetPeer("0", "127.0.0.1:9"); err != nil {
		t.Fatal(err)
	}
	if len(peers) != 2 || peers[0] != "A" || peers[1] != "B" {
		t.Fatalf("an earlier Peers result changed under SetPeer: %v", peers)
	}
	if now := a.Peers(); len(now) != 3 || now[0] != "0" || now[1] != "A" || now[2] != "B" {
		t.Fatalf("Peers after SetPeer = %v", now)
	}
	if err := a.SetPeer("B", "127.0.0.1:9"); err != nil || len(a.Peers()) != 3 {
		t.Fatalf("re-addressing a known peer: %v, Peers = %v", err, a.Peers())
	}
}

func TestUDPMalformedDatagramIgnored(t *testing.T) {
	a, b := newUDPPair(t)
	// Fire a garbage datagram at B's socket; B must survive and keep serving.
	baddr := netip.MustParseAddrPort(b.LocalAddr())
	if _, err := a.conn.WriteToUDPAddrPort([]byte("garbage!"), baddr); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond)
	if _, err := a.Send(context.Background(), "B", Message{}); err != nil {
		t.Fatalf("B stopped serving after garbage: %v", err)
	}
}

// TestUDPOverLimitFailsAtOnce: over sockets and over a Sim switch, a request
// that encodes over the send limit, 65 507 bytes, is not written — Send fails
// at once with an error naming its size, not at its deadline — and a reply
// that would be is replaced by a refusal naming its size. The switch itself
// refuses such a datagram too.
func TestUDPOverLimitFailsAtOnce(t *testing.T) {
	const overLimit = "bytes over the 65507-byte limit"
	big := strings.Repeat("x", 70_000)
	bigReply := func(from string, req Message, reply func(Message)) {
		reply(Message{Kind: KindValue, OK: true, Value: big})
	}
	sockA, err := NewUDPAsync("A", "127.0.0.1:0", nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	sockB, err := NewUDPAsync("B", "127.0.0.1:0", nil, bigReply)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sockA.Close(); sockB.Close() })
	if err := sockA.SetPeer("B", sockB.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	t.Cleanup(sim.Close)
	simA := sim.EndpointAsync("A", nil)
	sim.EndpointAsync("B", bigReply)

	for _, tc := range []struct {
		name string
		from Transport
	}{{"sockets", sockA}, {"sim", simA}} {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		start := time.Now()
		_, err := tc.from.Send(ctx, "B", Message{Kind: KindAccept, Payload: []byte(big)})
		if took := time.Since(start); err == nil || errors.Is(err, ErrTimeout) || !strings.Contains(err.Error(), "datagram of 70") || !strings.Contains(err.Error(), overLimit) {
			t.Errorf("%s: an oversized request: %v after %v, want a send error naming its size", tc.name, err, took)
		}
		resp, err := tc.from.Send(ctx, "B", Message{Kind: KindReadMulti})
		if err != nil || resp.OK || !strings.Contains(resp.Err, overLimit) {
			t.Errorf("%s: an oversized reply: %+v, %v; want a refusal naming its size", tc.name, resp, err)
		}
		cancel()
	}
	port := simA.(*UDP).conn.(*port)
	if _, err := port.WriteToUDPAddrPort(make([]byte, SendLimit+1), netip.AddrPortFrom(dcNet, 1)); err == nil || !strings.Contains(err.Error(), overLimit) {
		t.Errorf("the switch took a %d-byte datagram: %v", SendLimit+1, err)
	}
}

// TestParsePeers: the one peer-list parser of txkvd and txkvctl refuses an
// entry without a name or an address and a name given twice.
func TestParsePeers(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want map[string]string
		err  string
	}{
		{in: "V1=127.0.0.1:7001", want: map[string]string{"V1": "127.0.0.1:7001"}},
		{in: "V1=127.0.0.1:7001,V2=127.0.0.1:7002,V3=localhost:7003",
			want: map[string]string{"V1": "127.0.0.1:7001", "V2": "127.0.0.1:7002", "V3": "localhost:7003"}},
		{in: "V1=a:1,V1=b:2", err: `network: peer "V1" named twice`},
		{in: "V1=a:1,V2=b:2,V1=a:1", err: `network: peer "V1" named twice`},
		{in: "", err: `network: bad peer entry "" (want name=addr)`},
		{in: "V1=a:1,", err: `network: bad peer entry "" (want name=addr)`},
		{in: "V1=a:1,,V2=b:2", err: `network: bad peer entry "" (want name=addr)`},
		{in: "V1", err: `network: bad peer entry "V1" (want name=addr)`},
		{in: "=a:1", err: `network: bad peer entry "=a:1" (want name=addr)`},
		{in: "V1=", err: `network: bad peer entry "V1=" (want name=addr)`},
		{in: "V1==a:1", err: `network: bad peer entry "V1==a:1" (want name=addr)`},
		{in: "V1=a:1=b", err: `network: bad peer entry "V1=a:1=b" (want name=addr)`},
	} {
		got, err := ParsePeers(tc.in)
		switch {
		case tc.err != "" && (err == nil || err.Error() != tc.err):
			t.Errorf("ParsePeers(%q) = %v, %v; want error %q", tc.in, got, err, tc.err)
		case tc.err == "" && (err != nil || !maps.Equal(got, tc.want)):
			t.Errorf("ParsePeers(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// TestPayloadRoomFillsADatagram: a payload of PayloadRoom bytes, in a message
// whose other fields are at their widest, encodes to exactly SendLimit bytes.
func TestPayloadRoomFillsADatagram(t *testing.T) {
	for _, c := range []struct{ group, name string }{{"g", "V1"}, {"orders-7", "datacenter-east"}} {
		room := PayloadRoom(c.group, c.name)
		const wide = math.MinInt64
		m := Message{Kind: KindLastVote, Group: c.group, Pos: wide, Ballot: wide, TS: wide, Epoch: wide,
			Payload: make([]byte, room)}
		if n := len(appendEnvelope(nil, envelope{ID: math.MaxUint64, From: c.name, Msg: m})); n != SendLimit {
			t.Errorf("%q from %q: a %d-byte payload encodes to %d bytes, want %d", c.group, c.name, room, n, SendLimit)
		}
	}
}
