package network

import (
	"context"
	"errors"
	"testing"
	"time"
)

// heldReplies is an AsyncHandler that answers nothing by itself: it hands
// each request's reply callback, with the request, to the test.
type heldReplies chan heldReply

type heldReply struct {
	req   Message
	reply func(Message)
}

func (h heldReplies) handle(from string, req Message, reply func(Message)) {
	h <- heldReply{req, reply}
}

// udpTo opens a transport named name whose peer table knows itself and the
// given peers.
func udpTo(t *testing.T, name string, h AsyncHandler, peers ...*UDP) *UDP {
	t.Helper()
	u, err := NewUDPAsync(name, "127.0.0.1:0", nil, h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { u.Close() })
	if err := u.SetPeer(name, u.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	for _, p := range peers {
		if err := u.SetPeer(p.Local(), p.LocalAddr()); err != nil {
			t.Fatal(err)
		}
	}
	return u
}

// TestUDPCloseFailsPendingCalls: Close answers every Send still waiting with
// ErrClosed at once — one to a silent peer and one its own handler holds —
// instead of leaving them to their deadlines.
func TestUDPCloseFailsPendingCalls(t *testing.T) {
	held := make(heldReplies, 2)
	silent := udpTo(t, "B", held.handle)
	a := udpTo(t, "A", held.handle, silent)

	errs := make(chan error, 2)
	for _, to := range []string{"B", "A"} {
		go func(to string) {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_, err := a.Send(ctx, to, Message{Kind: KindReadPos})
			errs <- err
		}(to)
	}
	<-held // both requests are out: one at B, one at A's own handler
	<-held
	closed := time.Now()
	a.Close()
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, ErrClosed) {
			t.Fatalf("pending Send = %v, want ErrClosed", err)
		}
	}
	if took := time.Since(closed); took > 100*time.Millisecond {
		t.Fatalf("pending Sends returned %v after Close, want within 100ms", took)
	}
}

// TestUDPPooledCallNeverCrossesCalls: a reply held past its caller's
// deadline and released while the next Send waits on the same pooled call —
// from a peer, and from the transport's own handler — never becomes that
// Send's response.
func TestUDPPooledCallNeverCrossesCalls(t *testing.T) {
	held := make(heldReplies, 2)
	peer := udpTo(t, "B", held.handle)
	a := udpTo(t, "A", held.handle, peer)
	for _, to := range []string{"B", "A"} {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		_, err := a.Send(ctx, to, Message{Kind: KindReadPos, Pos: 1})
		cancel()
		if !errors.Is(err, ErrTimeout) {
			t.Fatalf("%s: first Send = %v, want ErrTimeout", to, err)
		}
		late := <-held

		got := make(chan Message, 1)
		go func() {
			resp, err := a.Send(context.Background(), to, Message{Kind: KindReadPos, Pos: 2})
			if err != nil {
				t.Errorf("%s: second Send: %v", to, err)
			}
			got <- resp
		}()
		second := <-held
		late.reply(Message{Kind: KindStatus, OK: true, Pos: late.req.Pos})
		time.Sleep(5 * time.Millisecond) // the late reply lands, or would
		second.reply(Message{Kind: KindStatus, OK: true, Pos: second.req.Pos})
		if resp := <-got; resp.Pos != 2 {
			t.Fatalf("%s: second Send got %+v, want its own response (Pos 2)", to, resp)
		}
	}
}
