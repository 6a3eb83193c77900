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
// OK at once, and silent answers nothing: its Send waits out the context.
type silentPeer struct {
	network.Transport // only Send, Local and Peers are called
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
	return network.Message{Kind: network.KindStatus, OK: true, Ballot: req.Ballot}, nil
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

// TestAcceptRoundAllocs pins one accept round over three UDP loopback
// services: the round itself costs nothing — its phase timeout is a pooled
// deadline.Phase, and there is no reply channel, request copy or sender
// closure per round or per destination. What it allocates is the
// acceptors' writes and each response's decode.
func TestAcceptRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	dcs := []string{"A", "B", "C"}
	var trs []*network.UDP
	for _, dc := range dcs {
		acc := NewAcceptor(kvstore.New())
		u, err := network.NewUDPAsync(dc, "127.0.0.1:0", nil, func(from string, req network.Message, reply func(network.Message)) {
			resp, _ := HandleMessage(acc, req)
			reply(resp)
		})
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
	const maxAcceptAllocs = 27
	if allocs > maxAcceptAllocs {
		t.Fatalf("accept round allocates %.1f/op, want <= %d", allocs, maxAcceptAllocs)
	}
}
