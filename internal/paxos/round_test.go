package paxos

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
)

// silentPeer is a transport over which every datacenter but silent answers
// OK at once, and silent answers nothing: its Send waits out the context,
// and its Go's done never runs.
type silentPeer struct {
	network.Transport // only Send, Go, Local and Peers are called
	dcs               []string
	silent            string
}

func (s silentPeer) Local() string   { return s.dcs[0] }
func (s silentPeer) Peers() []string { return s.dcs }
func (s silentPeer) Send(ctx context.Context, to string, req network.Message) (network.Message, error) {
	if to == s.silent {
		<-ctx.Done()
		return network.Message{}, network.ErrTimeout
	}
	return s.ok(req), nil
}

func (s silentPeer) Go(to string, req network.Message, done func(network.Message, error)) network.Call {
	if to != s.silent {
		done(s.ok(req), nil)
	}
	return network.Call{}
}

func (s silentPeer) ok(req network.Message) network.Message {
	return network.Message{Kind: network.KindStatus, OK: true, Ballot: req.Ballot}
}

// countPooled counts the rounds over tr returned to the pool from now on.
func countPooled(t *testing.T, tr network.Transport) *atomic.Int64 {
	n := new(atomic.Int64)
	f := func(of network.Transport) {
		if of == tr {
			n.Add(1)
		}
	}
	roundPooled.Store(&f)
	t.Cleanup(func() { roundPooled.Store(nil) })
	return n
}

// settle waits until a round has been pooled since pooled0 and the
// goroutine count is back to base, waits out one more round timeout for a
// second release, and returns how many rounds were pooled since pooled0.
func settle(t *testing.T, pooled *atomic.Int64, base int, pooled0 int64, timeout time.Duration) int64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for pooled.Load() == pooled0 || runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running (want %d), %d rounds pooled",
				runtime.NumGoroutine(), base, pooled.Load()-pooled0)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(timeout)
	return pooled.Load() - pooled0
}

// TestRoundStragglersPoolOnce: a broadcast that stops at its majority with
// one peer silent, and a Notify that waits for home only, leave senders out;
// once the deadline has passed every round goroutine has exited and each
// round was pooled exactly once — by its last straggler, not before it and
// not twice.
func TestRoundStragglersPoolOnce(t *testing.T) {
	tr := &silentPeer{dcs: []string{"A", "B", "C"}, silent: "C"}
	p := &Proposer{Transport: tr, Timeout: 30 * time.Millisecond}
	pooled := countPooled(t, tr)
	base := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		pooled0 := pooled.Load()
		if acc := p.Accept(context.Background(), "g", 1, 5, []byte("v")); !acc.Quorum() {
			t.Fatalf("accept = %+v, want a quorum from A and B", acc)
		}
		if n := settle(t, pooled, base, pooled0, p.Timeout); n != 1 {
			t.Fatalf("accept round pooled %d times, want 1", n)
		}
		pooled0 = pooled.Load()
		p.Notify(context.Background(), "A", "g", 1, 5, []byte("v"))
		if n := settle(t, pooled, base, pooled0, p.Timeout); n != 1 {
			t.Fatalf("notify round pooled %d times, want 1", n)
		}
	}
}

// acceptorRing opens one UDP loopback transport per datacenter, each serving
// its own memory-store acceptor on its read loop, except that a datacenter
// named in silent hands each request to silent's function and never
// replies. It returns the transports in dcs order.
func acceptorRing(t *testing.T, dcs []string, silent map[string]func(network.Message)) []*network.UDP {
	t.Helper()
	var trs []*network.UDP
	for _, dc := range dcs {
		acc := NewAcceptor(kvstore.New())
		h := func(from string, req network.Message, reply func(network.Message)) {
			resp, _ := HandleMessage(acc, req)
			reply(resp)
		}
		if hold := silent[dc]; hold != nil {
			h = func(from string, req network.Message, reply func(network.Message)) { hold(req) }
		}
		u, err := network.NewUDPAsync(dc, "127.0.0.1:0", nil, h)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { u.Close() })
		trs = append(trs, u)
	}
	for _, u := range trs {
		for i, v := range trs {
			if err := u.SetPeer(dcs[i], v.LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	return trs
}

// TestAcceptRoundAllocs pins one accept round over three UDP loopback
// services: the round itself costs nothing — its phase timeout is a pooled
// deadline.Phase, each destination's call is a pooled pending-call entry
// whose done was bound when the round was first made, and the local
// acceptor's reply is a pooled replier — and there is no reply channel,
// request copy, closure or goroutine per round or per destination. What it
// allocates is the acceptors' writes and each response's decode. The parent
// of the asynchronous round read 19 with this test: a goroutine per
// destination, and a closure for the local call's reply.
func TestAcceptRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	trs := acceptorRing(t, []string{"A", "B", "C"}, nil)
	p := &Proposer{Transport: trs[0], Timeout: 5 * time.Second}
	value := []byte("entry-bytes")
	pos := int64(0)
	accept := func() {
		pos++
		if acc := p.AcceptUnanimous(context.Background(), "g", pos, FastBallot, value); !acc.Unanimous() {
			t.Fatalf("accept at %d = %+v", pos, acc)
		}
	}
	accept() // warm the pools
	allocs := testing.AllocsPerRun(200, accept)
	const maxAcceptAllocs = 18
	if allocs > maxAcceptAllocs {
		t.Fatalf("accept round allocates %.1f/op, want <= %d", allocs, maxAcceptAllocs)
	}
}

// TestRoundOnSilentPeerStartsNoGoroutine: an accept round over three UDP
// loopback services, one of which never answers, runs on the caller's
// goroutine and the transports' read loops alone — when the silent peer has
// the request, the goroutine count is what it was before the round — and
// ends at its phase, with the silent peer counted unreachable. (A round that
// started a sender per destination had one parked on the silent peer.)
func TestRoundOnSilentPeerStartsNoGoroutine(t *testing.T) {
	const timeout = 100 * time.Millisecond
	during := make(chan int, 16)
	trs := acceptorRing(t, []string{"A", "B", "C"}, map[string]func(network.Message){
		"C": func(network.Message) { during <- runtime.NumGoroutine() },
	})
	p := &Proposer{Transport: trs[0], Timeout: timeout}
	value := []byte("entry-bytes")
	for pos := int64(1); pos <= 5; pos++ {
		base := runtime.NumGoroutine()
		start := time.Now()
		acc := p.AcceptUnanimous(context.Background(), "g", pos, FastBallot, value)
		took := time.Since(start)
		if acc.Acks != 2 || acc.Unreachable != 1 || acc.Unanimous() {
			t.Fatalf("accept at %d = %+v, want 2 acks and the silent peer unreachable", pos, acc)
		}
		if took < timeout || took > timeout+time.Second {
			t.Fatalf("round at %d took %v, want its phase, %v", pos, took, timeout)
		}
		if g := <-during; g > base {
			t.Fatalf("round at %d: %d goroutines while the silent peer held the request, %d before the round", pos, g, base)
		}
	}
}

// TestNotifyRoundAllocs pins a Notify over three UDP loopback services at
// no allocation once its forgotten round has been pooled: the other legs'
// calls, their bound callbacks, the round's expiry timer and home's Send
// are all reused. (With a goroutine per leg and a closure for the
// self-addressed reply it read 2.)
func TestNotifyRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	trs := acceptorRing(t, []string{"A", "B", "C"}, nil)
	p := &Proposer{Transport: trs[0], Timeout: 5 * time.Second}
	pooled := make(chan struct{}, 1)
	f := func(of network.Transport) {
		if of == trs[0] {
			pooled <- struct{}{}
		}
	}
	roundPooled.Store(&f)
	t.Cleanup(func() { roundPooled.Store(nil) })
	value := []byte("entry-bytes")
	notify := func() {
		p.Notify(context.Background(), "A", "g", 1, 5, value)
		<-pooled // the last leg's answer pools the round
	}
	notify() // warm the pools
	if allocs := testing.AllocsPerRun(200, notify); allocs > 0 {
		t.Fatalf("notify allocates %.1f/op, want 0", allocs)
	}
}
