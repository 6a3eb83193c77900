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

func awaitReply(t testing.TB, ch chan network.Message) network.Message {
	t.Helper()
	select {
	case m := <-ch:
		return m
	case <-time.After(5 * time.Second):
		t.Fatal("no reply within 5s")
		return network.Message{}
	}
}

// ask delivers req to s through AsyncHandler, the entry point the transports
// register, and waits for its one reply.
func ask(t testing.TB, s *Service, from string, req network.Message) network.Message {
	t.Helper()
	reply, ch := collectReply()
	s.AsyncHandler()(from, req, reply)
	return awaitReply(t, ch)
}

// wireKinds lists every Kind the wire codec has a code for, in code order.
// An encoded message starts with its kind's code, so the codes that decode
// are the codec's table.
func wireKinds() []network.Kind {
	b := network.MarshalBinary(network.Message{Kind: network.KindPrepare})
	var kinds []network.Kind
	for code := 0; code < 0xFF; code++ {
		b[0] = byte(code)
		m, err := network.UnmarshalBinary(b)
		if err != nil {
			break
		}
		kinds = append(kinds, m.Kind)
	}
	return kinds
}

// TestAsyncHandlerServesHotKinds sends a request of every request kind the
// wire codec knows, and one it does not, through AsyncHandler, the service's
// one entry point. Each gets exactly one reply and never a timeout: the
// answer below from a live service, and after Close an answer or a
// VerdictShutdown refusal. A kind added to the codec fails here until it is
// classified.
func TestAsyncHandlerServesHotKinds(t *testing.T) {
	s := NewService("A", kvstore.New(), nil)
	defer s.Close()
	if err := s.ApplyDecided("g", 1, entryBytes("t1", 0, map[string]string{"x": "1"})); err != nil {
		t.Fatal(err)
	}
	ok := func(m network.Message) bool { return m.OK }
	refused := func(m network.Message) bool { return !m.OK }
	requests := []struct {
		req  network.Message
		live func(network.Message) bool
	}{
		{network.Message{Kind: network.KindPrepare, Group: "g", Pos: 5, Ballot: 7}, ok},
		{network.Message{Kind: network.KindAccept, Group: "g", Pos: 5, Ballot: 7, Payload: entryBytes("t5", 1, nil)}, ok},
		// An apply lands in the log and is answered by the drain that makes
		// it durable.
		{network.Message{Kind: network.KindApply, Group: "g", Pos: 2,
			Payload: entryBytes("t2", 1, map[string]string{"x": "2"})}, ok},
		{network.Message{Kind: network.KindReadPos, Group: "g"},
			func(m network.Message) bool { return m.OK && m.TS == 2 }},
		{network.Message{Kind: network.KindRead, Group: "g", Key: "x", TS: 1},
			func(m network.Message) bool { return m.OK && m.Value == "1" }},
		// A read ahead of the watermark takes the catch-up path (here: fails,
		// no peers) but still must reply rather than strand the client.
		{network.Message{Kind: network.KindRead, Group: "g", Key: "x", TS: 9}, refused},
		// Lazy read position: TS = ResolvePos serves at the watermark inline.
		{network.Message{Kind: network.KindReadMulti, Group: "g", TS: network.ResolvePos, Keys: []string{"x", "y"}},
			func(m network.Message) bool { return m.OK && m.TS == 2 && m.Vals[0] == "2" && !m.Founds[1] }},
		{network.Message{Kind: network.KindClaimLeader, Group: "g", Pos: 3, Value: "c1"}, ok},
		{network.Message{Kind: network.KindFetchLog, Group: "g", Pos: 1}, ok},
		// Malformed submit payloads are refused straight from the entry point.
		{network.Message{Kind: network.KindSubmit, Group: "g", Payload: []byte("junk")},
			func(m network.Message) bool { return !m.OK && m.Err == "bad submit payload" }},
		{network.Message{Kind: network.KindSnapshot, Group: "g"}, ok},
		{network.Message{Kind: network.KindStats, Group: "g"}, ok},
		{network.Message{Kind: network.KindCompact, Group: "g", TS: 1},
			func(m network.Message) bool { return m.OK && m.TS == 1 }},
		{network.Message{Kind: network.KindRangeSnapshot, Group: "g", Value: "g1", Keys: []string{"g", "g1"}, TS: network.ResolvePos}, ok},
		{network.Message{Kind: network.KindMigrate, Group: "g", Payload: []byte("junk")},
			func(m network.Message) bool { return !m.OK && m.Err == "bad migrate payload" }},
		{network.Message{Kind: network.KindScan, Group: "g", Value: "", TS: network.ResolvePos},
			func(m network.Message) bool { return m.OK && m.TS == 2 && len(m.Keys) == 1 }},
		// Unknown kinds still answer (worker-inline default arm).
		{network.Message{Kind: network.Kind("future"), Group: "g"}, refused},
	}
	// Replies, not requests: nothing sends these kinds to a service.
	replyKinds := map[network.Kind]bool{network.KindLastVote: true, network.KindStatus: true, network.KindValue: true}
	sent := map[network.Kind]bool{}
	for _, r := range requests {
		sent[r.req.Kind] = true
	}
	wire := map[network.Kind]bool{}
	for _, k := range wireKinds() {
		wire[k] = true
		if sent[k] == replyKinds[k] {
			t.Errorf("kind %q is neither a request sent here nor a reply", k)
		}
	}
	for k := range sent {
		if !wire[k] && k != "future" {
			t.Errorf("kind %q is sent here but the codec has no code for it", k)
		}
	}

	ah := s.AsyncHandler()
	var replies []*atomic.Int32
	send := func(req network.Message) network.Message {
		t.Helper()
		n, ch := new(atomic.Int32), make(chan network.Message, 1)
		replies = append(replies, n)
		ah("B", req, func(m network.Message) {
			if n.Add(1) == 1 {
				ch <- m
			}
		})
		return awaitReply(t, ch)
	}
	for _, r := range requests {
		if m := send(r.req); !r.live(m) {
			t.Errorf("%s: %+v", r.req.Kind, m)
		}
	}
	s.Close()
	for _, r := range requests {
		m := send(r.req)
		switch r.req.Kind {
		case network.KindApply, network.KindSubmit, network.KindMigrate:
			// Answered by the log or the pipeline, not the dispatcher, and
			// the same as before: the apply is logged already, and the
			// payloads are junk.
			if !r.live(m) {
				t.Errorf("%s after Close: %+v", r.req.Kind, m)
			}
		default:
			if m.OK || m.Verdict != network.VerdictShutdown {
				t.Errorf("%s after Close: %+v, want a shutdown refusal", r.req.Kind, m)
			}
		}
	}
	for i, n := range replies {
		if got := n.Load(); got != 1 {
			t.Errorf("request %d (%s) was answered %d times", i, requests[i%len(requests)].req.Kind, got)
		}
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
	services, sim := newServiceRing(t, 7, dcs)
	// The client shares DC B's endpoint.
	clTr := sim.EndpointAsync("B", services["B"].AsyncHandler())
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
