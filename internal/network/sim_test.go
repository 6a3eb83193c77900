package network

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestSimDroppedRequestLeaksNoGoroutine: a handler that never replies — a
// crashed replica's, which lets its requests fall on the floor — costs the
// senders their deadlines and nothing after Close: no goroutine waits on
// the missing reply.
func TestSimDroppedRequestLeaksNoGoroutine(t *testing.T) {
	base := runtime.NumGoroutine()
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", func(string, Message, func(Message)) {})

	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			defer cancel()
			if _, err := a.Send(ctx, "B", Message{Kind: KindReadPos}); !errors.Is(err, ErrTimeout) {
				t.Errorf("dropped request: err = %v, want ErrTimeout", err)
			}
		}()
	}
	wg.Wait()
	sim.Close()
	for end := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(end) {
			t.Fatalf("%d goroutines after Close, %d before the Sim: %d dropped requests leaked",
				runtime.NumGoroutine(), base, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSimEndpointsOfOneDatacenter: two endpoints registered for one
// datacenter each get the responses to their own requests, and requests
// addressed to the datacenter reach its latest endpoint — and, once that
// one is closed, are lost.
func TestSimEndpointsOfOneDatacenter(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	defer sim.Close()
	first := sim.EndpointAsync("A", echoHandler("A1"))
	second := sim.EndpointAsync("A", echoHandler("A2"))
	b := sim.EndpointAsync("B", echoHandler("B"))
	for _, ep := range []Transport{first, second} {
		resp, err := ep.Send(context.Background(), "B", Message{Kind: KindReadPos})
		if err != nil || resp.Err != "B<-A" {
			t.Fatalf("A's endpoint to B: %+v %v, want B's own reply", resp, err)
		}
	}
	if resp, err := b.Send(context.Background(), "A", Message{}); err != nil || resp.Err != "A2<-B" {
		t.Fatalf("B to A: %+v %v, want the latest endpoint's reply", resp, err)
	}
	second.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if resp, err := b.Send(ctx, "A", Message{}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("B to A after the latest closed: %+v %v, want ErrTimeout", resp, err)
	}
}

// TestSimSelfSendCrossesTheSwitch: a request an endpoint sends to its own
// datacenter is a datagram on the switch — counted both ways, lost while the
// datacenter is down — not the inline call a socket's transport makes.
func TestSimSelfSendCrossesTheSwitch(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	defer sim.Close()
	a := sim.EndpointAsync("A", echoHandler("A"))
	if resp, err := a.Send(context.Background(), "A", Message{Kind: KindPrepare}); err != nil || resp.Err != "A<-A" {
		t.Fatalf("self send: %+v %v", resp, err)
	}
	if w, r := a.(*UDP).Datagrams(); w != 2 || r != 2 {
		t.Fatalf("self send moved %d datagrams out, %d in, want 2 and 2", w, r)
	}
	if snap := sim.Counters(); snap.Sent[KindPrepare] != 1 || snap.Sent[KindStatus] != 1 {
		t.Fatalf("counters = %+v, want one prepare and one status", snap.Sent)
	}
	sim.SetDown("A", true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Send(ctx, "A", Message{Kind: KindPrepare}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("self send while down: err = %v, want ErrTimeout", err)
	}
}

// TestSimFullQueueIsLoss: an endpoint whose read loop is stalled in its
// handler loses what arrives past its queue, counted, while the switch
// keeps delivering to everyone else.
func TestSimFullQueueIsLoss(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	defer sim.Close()
	stalled, release := make(chan struct{}), make(chan struct{})
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", func(_ string, req Message, reply func(Message)) {
		if req.Pos == 0 {
			close(stalled)
			<-release // stalls B's read loop
		}
		reply(Message{Kind: KindStatus, OK: true})
	})
	sim.EndpointAsync("C", echoHandler("C"))
	defer close(release)

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		a.Send(ctx, "B", Message{Kind: KindRead})
	}()
	<-stalled
	for i := 1; i <= portQueue+50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a.Send(ctx, "B", Message{Kind: KindRead, Pos: int64(i)})
		}(i)
	}
	if _, err := a.Send(context.Background(), "C", Message{}); err != nil {
		t.Fatalf("A to C while B is stalled: %v", err)
	}
	wg.Wait()
	// The last requests may still be in flight: wait for them to land.
	for end := time.Now().Add(5 * time.Second); sim.Counters().Lost[KindRead] == 0; {
		if time.Now().After(end) {
			t.Fatal("no request counted lost past B's full queue")
		}
		time.Sleep(time.Millisecond)
	}
}
