package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
)

// collectReply returns a reply callback and a channel carrying the verdict.
func collectReply() (func(network.Message), chan network.Message) {
	ch := make(chan network.Message, 1)
	return func(m network.Message) {
		select {
		case ch <- m:
		default:
		}
	}, ch
}

func awaitReply(t *testing.T, ch chan network.Message) network.Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no reply within 5s")
		return network.Message{}
	}
}

// TestAsyncHandlerServesHotKinds routes representative requests through the
// async entry point and checks each gets the same answer the synchronous
// Handler would give.
func TestAsyncHandlerServesHotKinds(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	defer s.Close()
	if err := s.ApplyDecided("g", 1, entryBytes("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	ah := s.AsyncHandler()

	reply, ch := collectReply()
	ah("B", network.Message{Kind: network.KindReadPos, Group: "g"}, reply)
	if m := awaitReply(t, ch); !m.OK || m.TS != 1 {
		t.Fatalf("readpos = %+v", m)
	}

	reply, ch = collectReply()
	ah("B", network.Message{Kind: network.KindRead, Group: "g", Key: "x", TS: 1}, reply)
	if m := awaitReply(t, ch); !m.OK || m.Value != "1" {
		t.Fatalf("read = %+v", m)
	}

	// Lazy read position: TS = ResolvePos serves at the watermark inline.
	reply, ch = collectReply()
	ah("B", network.Message{Kind: network.KindReadMulti, Group: "g", TS: network.ResolvePos,
		Keys: []string{"x", "y"}}, reply)
	if m := awaitReply(t, ch); !m.OK || m.TS != 1 || m.Vals[0] != "1" || m.Founds[1] {
		t.Fatalf("readmulti = %+v", m)
	}

	// A read ahead of the watermark takes the catch-up path (here: fails,
	// no peers) but still must reply rather than strand the client.
	reply, ch = collectReply()
	ah("B", network.Message{Kind: network.KindRead, Group: "g", Key: "x", TS: 9}, reply)
	if m := awaitReply(t, ch); m.OK {
		t.Fatalf("read@9 with no peers = %+v, want refusal", m)
	}

	// Apply runs off-worker and replies when the watermark covers it.
	reply, ch = collectReply()
	ah("B", network.Message{Kind: network.KindApply, Group: "g", Pos: 2,
		Payload: entryBytes("t2", 1, map[string]string{"x": "2"})}, reply)
	if m := awaitReply(t, ch); !m.OK {
		t.Fatalf("apply = %+v", m)
	}

	// Malformed submit payloads are refused straight from the entry point.
	reply, ch = collectReply()
	ah("B", network.Message{Kind: network.KindSubmit, Group: "g", Payload: []byte("junk")}, reply)
	if m := awaitReply(t, ch); m.OK || m.Err != "bad submit payload" {
		t.Fatalf("bad submit = %+v", m)
	}

	// Unknown kinds still answer (worker-inline default arm).
	reply, ch = collectReply()
	ah("B", network.Message{Kind: network.Kind("future"), Group: "g"}, reply)
	if m := awaitReply(t, ch); m.OK {
		t.Fatalf("unknown kind = %+v, want refusal", m)
	}
}

// TestAsyncHandlerParallelGroups floods many groups through one service's
// async entry point concurrently; every request must be answered and the
// per-group data must be consistent. This exercises the dispatcher's shard
// workers and the overflow-to-goroutine path under load.
func TestAsyncHandlerParallelGroups(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	defer s.Close()
	const groups, reads = 16, 200
	ah := s.AsyncHandler()
	for g := 0; g < groups; g++ {
		group := string(rune('a' + g))
		if err := s.ApplyDecided(group, 1, entryBytes("t"+group, 0, map[string]string{"k": group})); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		group := string(rune('a' + g))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < reads; i++ {
				reply, ch := collectReply()
				ah("B", network.Message{Kind: network.KindRead, Group: group, Key: "k", TS: 1}, reply)
				m := awaitReply(t, ch)
				if !m.OK || m.Value != group {
					t.Errorf("group %s read = %+v", group, m)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestMasterAsyncSubmitEndToEnd commits through the full async path: sim
// endpoints registered with EndpointAsync + AsyncHandler, the Master
// protocol's submit settling via the pipeline's verdict callback.
func TestMasterAsyncSubmitEndToEnd(t *testing.T) {
	dcs := []string{"A", "B", "C"}
	topo := network.NewTopology(dcs...)
	sim := network.NewSim(topo, network.SimConfig{Seed: 7})
	defer sim.Close()
	services := make(map[string]*Service, len(dcs))
	for _, dc := range dcs {
		dc := dc
		ep := sim.EndpointAsync(dc, func(from string, req network.Message, reply func(network.Message)) {
			services[dc].AsyncHandler()(from, req, reply)
		})
		services[dc] = NewService(dc, kvstore.New(), ep, WithServiceTimeout(200*time.Millisecond))
		defer services[dc].Close()
	}
	// The client shares DC B's endpoint (re-registering the same async
	// handler), as the service-ring tests do with the sync handler.
	clTr := sim.EndpointAsync("B", func(from string, req network.Message, reply func(network.Message)) {
		services["B"].AsyncHandler()(from, req, reply)
	})
	client := NewClient(1, "B", clTr, Config{
		Protocol: Master, MasterDC: "A", Timeout: 200 * time.Millisecond,
	})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		tx, err := client.Begin(ctx, "g")
		if err != nil {
			t.Fatal(err)
		}
		tx.Write("k", "v")
		res, err := tx.Commit(ctx)
		if err != nil || res.Status != stats.Committed {
			t.Fatalf("commit %d: res=%+v err=%v", i, res, err)
		}
	}
	// The committed value is readable at every replica.
	for _, dc := range dcs {
		v, _, err := services[dc].Store().Read(dataKey("g", "k"), kvstore.Latest)
		if err != nil || v["v"] != "v" {
			t.Fatalf("%s: k = %v (%v)", dc, v, err)
		}
	}
}

// TestAsyncHandlerDispatchAllocs: a request bound for a shard worker costs
// no allocation on its way through AsyncHandler — no closure, no copy of its
// Message on the heap, a pooled item — nor, for a read-position request, in
// the handler and the reply.
func TestAsyncHandlerDispatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates, and sync.Pool drops items under it")
	}
	s := NewService("A", kvstore.New(), nil)
	defer s.Close()
	s.EnsureGroups("g")
	ah := s.AsyncHandler()
	ch := make(chan network.Message, 1)
	reply := func(m network.Message) { ch <- m }
	req := network.Message{Kind: network.KindReadPos, Group: "g"}
	if allocs := testing.AllocsPerRun(200, func() {
		ah("B", req, reply)
		if m := <-ch; !m.OK {
			t.Fatalf("readpos = %+v", m)
		}
	}); allocs != 0 {
		t.Errorf("a shard-dispatched readpos allocates %.1f times, want 0", allocs)
	}
}

// TestDispatcherConcurrentDispatchAndClose: dispatches racing close from many
// goroutines each get exactly one answer — served, or refused with
// VerdictShutdown — and the pooled items carry no request into another's
// answer. Run it under -race with -count to shake the interleavings.
func TestDispatcherConcurrentDispatchAndClose(t *testing.T) {
	d := newDispatcher(2, func(_ string, req network.Message) network.Message {
		return network.Message{Kind: network.KindValue, OK: true, Pos: req.Pos}
	})
	const senders, each = 8, 200
	var answered, wrong atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < senders; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				pos := int64(g*each + i)
				var once atomic.Bool
				d.dispatch(string(rune('a'+g)), d.item("B", network.Message{Kind: network.KindReadPos, Pos: pos},
					func(m network.Message) {
						if once.Swap(true) || (m.OK && m.Pos != pos) || (!m.OK && m.Verdict != network.VerdictShutdown) {
							wrong.Add(1)
						}
						answered.Add(1)
					}))
			}
		}(g)
	}
	time.Sleep(time.Millisecond)
	d.close()
	wg.Wait()
	deadline := time.Now().Add(5 * time.Second)
	for answered.Load() < senders*each {
		if time.Now().After(deadline) {
			t.Fatalf("answered %d of %d dispatches", answered.Load(), senders*each)
		}
		time.Sleep(time.Millisecond)
	}
	if wrong.Load() != 0 {
		t.Fatalf("%d answers were duplicated, for another request, or not a shutdown refusal", wrong.Load())
	}
}
