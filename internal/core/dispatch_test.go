package core

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/kvstore/disk"
	"paxoscp/internal/network"
	"paxoscp/internal/replog"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
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

// askRead sends s the read Tx.Read sends — a one-key KindReadMulti of key at
// ts — and returns the reply with the key's value and found-ness in Value and
// Found.
func askRead(t testing.TB, s *Service, from, group, key string, ts int64) network.Message {
	t.Helper()
	resp := ask(t, s, from, network.Message{Kind: network.KindReadMulti, Group: group, Keys: []string{key}, TS: ts})
	if resp.OK {
		if len(resp.Vals) != 1 || len(resp.Founds) != 1 {
			t.Fatalf("one-key read of %q: reply %+v", key, resp)
		}
		resp.Value, resp.Found = resp.Vals[0], resp.Founds[0]
	}
	return resp
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
		// The retired kinds are refused by name, as any kind the service does
		// not serve: an old client's read, an old service's read-position probe.
		{network.Message{Kind: network.KindReadPos, Group: "g"},
			func(m network.Message) bool { return !m.OK && m.Err == `unknown kind "readpos"` }},
		{network.Message{Kind: network.KindRead, Group: "g", Key: "x", TS: 1},
			func(m network.Message) bool { return !m.OK && m.Err == `unknown kind "read"` }},
		// The read position: a read of no keys.
		{readPosRequest("g"), func(m network.Message) bool { return m.OK && m.TS == 2 }},
		{network.Message{Kind: network.KindReadMulti, Group: "g", Keys: []string{"x"}, TS: 1},
			func(m network.Message) bool { return m.OK && m.Vals[0] == "1" }},
		// A read ahead of the watermark takes the catch-up path (here: fails,
		// no peers) but still must reply rather than strand the client.
		{network.Message{Kind: network.KindReadMulti, Group: "g", Keys: []string{"x"}, TS: 9}, refused},
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
		// A well-formed entry that is not a handoff alone: a transaction
		// entry, and a handoff carrying a transaction.
		{network.Message{Kind: network.KindMigrate, Group: "g", Payload: entryBytes("t6", 1, nil)},
			func(m network.Message) bool { return !m.OK && m.Err == "bad migrate payload" }},
		{network.Message{Kind: network.KindMigrate, Group: "g", Payload: wal.Encode(wal.Entry{
			Handoff: wal.NewHandoff(wal.HandoffOut, "g", "g1", []string{"g", "g1"}).Handoff,
			Txns:    []wal.Txn{{ID: "t7", Writes: map[string]string{"x": "7"}}}})},
			func(m network.Message) bool { return !m.OK && m.Err == "bad migrate payload" }},
		{network.Message{Kind: network.KindScan, Group: "g", Value: "", TS: network.ResolvePos},
			func(m network.Message) bool { return m.OK && m.TS == 2 && len(m.Keys) == 1 }},
		// A batch of reads is one request, answered with one reply per read.
		{network.Message{Kind: network.KindBatch, Payload: network.AppendBatchItem(nil,
			network.Message{Kind: network.KindReadMulti, Group: "g", TS: network.ResolvePos, Keys: []string{"x"}})},
			func(m network.Message) bool { return m.OK && len(batchReplies(t, m)) == 1 }},
		// Unknown kinds still answer (the default arm, on a goroutine of their own).
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
// per-group data must be consistent. This exercises a goroutine per request
// under load.
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
				ah("B", network.Message{Kind: network.KindReadMulti, Group: group, Keys: []string{"k"}, TS: 1}, reply)
				m := awaitReply(t, ch)
				if !m.OK || m.Vals[0] != group {
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
		v, _, err := services[dc].Store().Read(replog.DataKey("g", "k"), kvstore.Latest)
		if err != nil || v["v"] != "v" {
			t.Fatalf("%s: k = %v (%v)", dc, v, err)
		}
	}
}

// TestAsyncHandlerDispatchAllocs: a request served on a goroutine of its
// own costs no allocation on its way through AsyncHandler — no closure, no
// copy of its Message on the heap, a pooled item — nor, for a read-position
// request (a read of no keys), in the handler and the reply.
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
	req := readPosRequest("g")
	if allocs := testing.AllocsPerRun(200, func() {
		ah("B", req, reply)
		if m := <-ch; !m.OK {
			t.Fatalf("read position = %+v", m)
		}
	}); allocs != 0 {
		t.Errorf("a dispatched read-position request allocates %.1f times, want 0", allocs)
	}
}

// TestDispatcherConcurrentDispatchAndClose: dispatches racing close from many
// goroutines each get exactly one answer — served, or refused with
// VerdictShutdown — and the pooled items carry no request into another's
// answer. Run it under -race with -count to shake the interleavings.
func TestDispatcherConcurrentDispatchAndClose(t *testing.T) {
	d := newDispatcher(func(_ string, req network.Message) network.Message {
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
				d.spawn(d.item("B", network.Message{Kind: network.KindReadPos, Pos: pos},
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

// syncGateFS is the real filesystem with a gate on WAL segment fsyncs: once
// armed, every segment Sync reports on entered and waits for release.
type syncGateFS struct {
	disk.FS
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (fs *syncGateFS) OpenFile(name string, flag int, perm os.FileMode) (disk.File, error) {
	f, err := fs.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), "wal-") {
		return f, err
	}
	return gatedSegment{f, fs}, nil
}

type gatedSegment struct {
	disk.File
	fs *syncGateFS
}

func (f gatedSegment) Sync() error {
	if f.fs.armed.Load() {
		f.fs.entered <- struct{}{}
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestSameGroupPrepareSkipsOthersFsync: a request does not wait for another
// request of its group to finish. With the first prepare of group g held in
// its fsync, a second prepare of g still reaches the engine and enters an
// fsync of its own; requests pinned to one worker per group would queue it
// behind the first until that fsync returned.
func TestSameGroupPrepareSkipsOthersFsync(t *testing.T) {
	fs := &syncGateFS{FS: disk.OSFS(), entered: make(chan struct{}, 4), release: make(chan struct{})}
	store, eng, err := disk.Open(t.TempDir(), disk.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	s := NewService("A", store, nil)
	s.EnsureGroups("g")
	defer eng.Close()
	defer s.Close()
	defer close(fs.release)
	fs.armed.Store(true)

	ah := s.AsyncHandler()
	replies := make(chan network.Message, 2)
	reply := func(m network.Message) { replies <- m }
	ah("B", network.Message{Kind: network.KindPrepare, Group: "g", Pos: 1, Ballot: 7}, reply)
	<-fs.entered // the first prepare's fsync is held
	ah("B", network.Message{Kind: network.KindPrepare, Group: "g", Pos: 2, Ballot: 7}, reply)
	select {
	case <-fs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the second prepare of the group did not reach an fsync while the first one's was held")
	}
	fs.armed.Store(false)
	fs.release <- struct{}{}
	fs.release <- struct{}{}
	for range 2 {
		if m := awaitReply(t, replies); !m.OK {
			t.Fatalf("prepare = %+v", m)
		}
	}
}
