package network

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// echoHandler answers every request inline, naming both ends.
func echoHandler(dc string) AsyncHandler {
	return func(from string, req Message, reply func(Message)) {
		reply(Message{Kind: KindStatus, OK: true, Err: dc + "<-" + from, Pos: req.Pos})
	}
}

func testTopo() *Topology {
	t := NewTopology("A", "B", "C")
	t.SetRTT("A", "B", 2*time.Millisecond)
	t.SetRTT("A", "C", 4*time.Millisecond)
	t.SetRTT("B", "C", 2*time.Millisecond)
	return t
}

func TestTopologyRTT(t *testing.T) {
	topo := testTopo()
	if got := topo.RTT("A", "B"); got != 2*time.Millisecond {
		t.Fatalf("RTT(A,B) = %v", got)
	}
	if got := topo.RTT("B", "A"); got != 2*time.Millisecond {
		t.Fatalf("RTT must be symmetric, got %v", got)
	}
	if got := topo.RTT("A", "A"); got != LocalRTT {
		t.Fatalf("self RTT = %v, want LocalRTT", got)
	}
	if got := topo.RTT("A", "unset"); got != LocalRTT {
		t.Fatalf("default RTT = %v, want LocalRTT", got)
	}
	dcs := topo.DCs()
	if len(dcs) != 3 || dcs[0] != "A" || dcs[2] != "C" {
		t.Fatalf("DCs = %v", dcs)
	}
}

func TestSimRequestResponse(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	defer sim.Close()
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", echoHandler("B"))

	resp, err := a.Send(context.Background(), "B", Message{Kind: KindPrepare, Pos: 7})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if !resp.OK || resp.Err != "B<-A" || resp.Pos != 7 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestSimUnknownPeer(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	defer sim.Close()
	a := sim.EndpointAsync("A", echoHandler("A"))
	if _, err := a.Send(context.Background(), "Z", Message{}); !errors.Is(err, ErrUnknownPeer) {
		t.Fatalf("err = %v, want ErrUnknownPeer", err)
	}
}

func TestSimLatencyApplied(t *testing.T) {
	topo := NewTopology("A", "B")
	topo.SetRTT("A", "B", 30*time.Millisecond)
	sim := NewSim(topo, SimConfig{Seed: 1})
	defer sim.Close()
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", echoHandler("B"))

	start := time.Now()
	if _, err := a.Send(context.Background(), "B", Message{}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el < 25*time.Millisecond {
		t.Fatalf("round trip took %v, want >= ~30ms", el)
	}
}

func TestSimScaleCompressesLatency(t *testing.T) {
	topo := NewTopology("A", "B")
	topo.SetRTT("A", "B", 100*time.Millisecond)
	sim := NewSim(topo, SimConfig{Seed: 1, Scale: 0.05})
	defer sim.Close()
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", echoHandler("B"))

	start := time.Now()
	if _, err := a.Send(context.Background(), "B", Message{}); err != nil {
		t.Fatal(err)
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("scaled round trip took %v, want ~5ms", el)
	}
}

func TestSimDownDatacenterTimesOut(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	defer sim.Close()
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", echoHandler("B"))
	sim.SetDown("B", true)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := a.Send(ctx, "B", Message{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	// The loss must consume the full timeout (paper: message loss is only
	// detectable via timeout).
	if el := time.Since(start); el < 15*time.Millisecond {
		t.Fatalf("timed out after only %v", el)
	}

	sim.SetDown("B", false)
	if _, err := a.Send(context.Background(), "B", Message{}); err != nil {
		t.Fatalf("after recovery: %v", err)
	}
}

func TestSimPartition(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	defer sim.Close()
	a := sim.EndpointAsync("A", echoHandler("A"))
	b := sim.EndpointAsync("B", echoHandler("B"))
	sim.EndpointAsync("C", echoHandler("C"))
	sim.Partition("A", "B")

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Send(ctx, "B", Message{}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("partitioned send: err = %v, want ErrTimeout", err)
	}
	// A–C and B–C remain reachable.
	if _, err := a.Send(context.Background(), "C", Message{}); err != nil {
		t.Fatalf("A->C: %v", err)
	}
	if _, err := b.Send(context.Background(), "C", Message{}); err != nil {
		t.Fatalf("B->C: %v", err)
	}
	sim.Unpartition("A", "B")
	if _, err := a.Send(context.Background(), "B", Message{}); err != nil {
		t.Fatalf("after heal: %v", err)
	}
}

func TestSimLossRate(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 42, LossRate: 1.0})
	defer sim.Close()
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", echoHandler("B"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := a.Send(ctx, "B", Message{}); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout at 100%% loss", err)
	}
	snap := sim.Counters()
	if snap.Lost[""]+snap.Lost[KindStatus]+snap.Lost[KindPrepare] == 0 && len(snap.Lost) == 0 {
		t.Fatal("no losses recorded")
	}
}

func TestSimClose(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", echoHandler("B"))
	sim.Close()
	if _, err := a.Send(context.Background(), "B", Message{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestSimCounters(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 1})
	defer sim.Close()
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", echoHandler("B"))
	for i := 0; i < 3; i++ {
		if _, err := a.Send(context.Background(), "B", Message{Kind: KindPrepare}); err != nil {
			t.Fatal(err)
		}
	}
	snap := sim.Counters()
	if snap.Sent[KindPrepare] != 3 {
		t.Fatalf("prepare count = %d, want 3", snap.Sent[KindPrepare])
	}
	if snap.Sent[KindStatus] != 3 {
		t.Fatalf("status count = %d, want 3", snap.Sent[KindStatus])
	}
	if snap.PaxosSent() != 6 {
		t.Fatalf("PaxosSent = %d, want 6", snap.PaxosSent())
	}
	sim.ResetCounters()
	if sim.Counters().TotalSent() != 0 {
		t.Fatal("ResetCounters did not zero")
	}
}

func TestSimConcurrentSends(t *testing.T) {
	sim := NewSim(testTopo(), SimConfig{Seed: 1, Jitter: 0.1})
	defer sim.Close()
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", echoHandler("B"))
	sim.EndpointAsync("C", echoHandler("C"))

	var wg sync.WaitGroup
	errs := make(chan error, 100)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			to := "B"
			if i%2 == 0 {
				to = "C"
			}
			if _, err := a.Send(context.Background(), to, Message{Pos: int64(i)}); err != nil {
				errs <- err
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSimAsyncEndpoint checks the async registration path: a handler that
// moves its work to another goroutine before replying still completes the
// round trip, and extra replies are dropped.
func TestSimAsyncEndpoint(t *testing.T) {
	sim := NewSim(NewTopology("A", "B"), SimConfig{Scale: 0.01})
	a := sim.EndpointAsync("A", echoHandler("A"))
	sim.EndpointAsync("B", func(from string, req Message, reply func(Message)) {
		go func() {
			reply(Message{Kind: KindStatus, OK: true, Err: "B<-" + from, Pos: req.Pos})
			reply(Message{Kind: KindStatus, OK: false}) // ignored
		}()
	})
	resp, err := a.Send(context.Background(), "B", Message{Kind: KindRead, Pos: 11})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Err != "B<-A" || resp.Pos != 11 {
		t.Fatalf("async reply = %+v", resp)
	}
}
