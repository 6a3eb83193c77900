package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
)

// batchOf is a batch request (network.KindBatch) carrying reqs in order.
func batchOf(reqs ...network.Message) network.Message {
	var payload []byte
	for _, r := range reqs {
		payload = network.AppendBatchItem(payload, r)
	}
	return network.Message{Kind: network.KindBatch, Payload: payload}
}

// batchReplies decodes the replies of a batch's OK answer, in order.
func batchReplies(t testing.TB, resp network.Message) []network.Message {
	t.Helper()
	var out []network.Message
	err := network.EachReply(resp.Payload, func(m network.Message) bool {
		m.Payload, m.Keys, m.Vals, m.Founds = slices.Clone(m.Payload), slices.Clone(m.Keys), slices.Clone(m.Vals), slices.Clone(m.Founds)
		out = append(out, m)
		return true
	})
	if err != nil {
		t.Fatalf("batch answer %+v: %v", resp, err)
	}
	return out
}

// readOf is a read of keys of group at the serving replica's watermark.
func readOf(group string, keys ...string) network.Message {
	return readRequest(group, keys, network.ResolvePos)
}

// batchService is one replica, without peers, whose group g holds x = "1"
// and big, a value of 40 000 bytes — two of which do not fit one datagram.
func batchService(t testing.TB) *Service {
	s := NewService("A", kvstore.New(), nil)
	t.Cleanup(s.Close)
	writes := map[string]string{"x": "1", "big": strings.Repeat("b", 40000)}
	if err := s.ApplyDecided("g", 1, entryBytes("seed", 0, writes)); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHandleBatch pins what a replica answers a batch: each read served in
// its slot as if it had arrived alone, any other kind — a nested batch
// among them — refused in its own slot, and one refusal for the whole batch
// when the payload does not parse or the replies would not fit a datagram.
func TestHandleBatch(t *testing.T) {
	s := batchService(t)
	refusedAlone := func(m network.Message) bool { return !m.OK && m.Verdict == network.VerdictFailed }

	t.Run("reads", func(t *testing.T) {
		resp := ask(t, s, "B", batchOf(readOf("g", "x", "y"), readOf("g2", "x"), readOf("g", "x")))
		if !resp.OK || resp.Kind != network.KindValue {
			t.Fatalf("answer %+v", resp)
		}
		got := batchReplies(t, resp)
		if len(got) != 3 {
			t.Fatalf("%d replies, want 3", len(got))
		}
		if r := got[0]; !r.OK || r.TS != 1 || r.Vals[0] != "1" || !r.Founds[0] || r.Founds[1] {
			t.Errorf("read of g's x and y: %+v", r)
		}
		if r := got[1]; !r.OK || r.TS != 0 || r.Founds[0] {
			t.Errorf("read of g2's x: %+v", r)
		}
		if r := got[2]; !r.OK || r.Vals[0] != "1" {
			t.Errorf("second read of g's x: %+v", r)
		}
	})

	t.Run("other kinds refused alone", func(t *testing.T) {
		resp := ask(t, s, "B", batchOf(
			network.Message{Kind: network.KindSubmit, Group: "g", Payload: []byte("junk")},
			readOf("g", "x"),
			batchOf(readOf("g", "x")),
			network.Message{Kind: network.KindPrepare, Group: "g", Pos: 2, Ballot: 1},
			network.Message{Kind: network.KindApply, Group: "g", Pos: 2, Payload: entryBytes("t", 1, map[string]string{"x": "2"})},
		))
		if !resp.OK {
			t.Fatalf("answer %+v", resp)
		}
		got := batchReplies(t, resp)
		if len(got) != 5 {
			t.Fatalf("%d replies, want 5", len(got))
		}
		for _, i := range []int{0, 2, 3, 4} {
			if !refusedAlone(got[i]) {
				t.Errorf("slot %d: %+v, want a refusal", i, got[i])
			}
		}
		if !got[1].OK || got[1].Vals[0] != "1" {
			t.Errorf("the read among them: %+v", got[1])
		}
		if s.LastApplied("g") != 1 {
			t.Errorf("an apply in a batch was applied: watermark %d", s.LastApplied("g"))
		}
	})

	t.Run("refused whole", func(t *testing.T) {
		over := ask(t, s, "B", batchOf(readOf("g", "big"), readOf("g", "big")))
		if !refusedAlone(over) || over.Kind == network.KindValue || !strings.Contains(over.Err, "datagram") {
			t.Errorf("replies over a datagram: %+v, want one refusal", over)
		}
		if one := ask(t, s, "B", batchOf(readOf("g", "big"))); !one.OK || len(batchReplies(t, one)) != 1 {
			t.Errorf("one big read: %+v", one)
		}
		bad := batchOf(readOf("g", "x"))
		bad.Payload = append(bad.Payload, 0x09, 0x05)
		if resp := ask(t, s, "B", bad); !refusedAlone(resp) || resp.Kind == network.KindValue {
			t.Errorf("a payload that does not parse: %+v, want one refusal", resp)
		}
	})

	t.Run("empty", func(t *testing.T) {
		if resp := ask(t, s, "B", batchOf()); !resp.OK || len(resp.Payload) != 0 {
			t.Errorf("empty batch: %+v", resp)
		}
	})
}

// FuzzBatch: a batch's payload is whatever a peer sends. Whatever it holds,
// the replica does not panic and answers with exactly one reply: one
// refusal if the payload does not parse, else one reply per request, no
// more requests than the payload has bytes to frame, and a refusal in the
// slot of every request that is not a read — a nested batch among them.
func FuzzBatch(f *testing.F) {
	s := batchService(f)
	f.Add(batchOf(readOf("g", "x"), readOf("g", "big", "y")).Payload)
	f.Add(batchOf(readOf("g", "x"), batchOf(readOf("g", "x"))).Payload)
	f.Add(batchOf(network.Message{Kind: network.KindSubmit, Group: "g"}, readRequest("g", []string{"x"}, 7)).Payload)
	f.Add(batchOf(readOf("g", "big"), readOf("g", "big")).Payload)
	f.Add([]byte{})
	f.Add([]byte{0x02, 0x05})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var replies atomic.Int32
		ch := make(chan network.Message, 1)
		s.AsyncHandler()("B", network.Message{Kind: network.KindBatch, Payload: payload}, func(m network.Message) {
			if replies.Add(1) == 1 {
				ch <- m
			}
		})
		resp := awaitReply(t, ch)
		var reqs []network.Kind
		perr := network.EachReply(payload, func(m network.Message) bool { reqs = append(reqs, m.Kind); return true })
		if 2*len(reqs) > len(payload) {
			t.Fatalf("%d requests framed in %d bytes", len(reqs), len(payload))
		}
		if perr != nil {
			if resp.OK || resp.Verdict != network.VerdictFailed {
				t.Fatalf("payload that does not parse (%v): %+v, want one refusal", perr, resp)
			}
		} else if resp.OK {
			got := batchReplies(t, resp)
			if len(got) != len(reqs) {
				t.Fatalf("%d replies to %d requests", len(got), len(reqs))
			}
			for i, kind := range reqs {
				if kind != network.KindReadMulti && got[i].OK {
					t.Fatalf("a %q request in a batch served: %+v", kind, got[i])
				}
			}
		} else if resp.Verdict != network.VerdictFailed || !strings.Contains(resp.Err, "datagram") {
			t.Fatalf("%d requests that parse refused whole: %+v", len(reqs), resp)
		}
		if n := replies.Load(); n != 1 {
			t.Fatalf("%d replies", n)
		}
	})
}

// TestReadMultiOneDatagramPerReplica: on UDP loopback, a routed read of four
// keys in four groups is one request datagram to the local replica and one
// reply — not one of each per group.
func TestReadMultiOneDatagramPerReplica(t *testing.T) {
	cl, router := readAllocCluster(t)
	kv := NewKV(cl, router)
	udp := cl.transport.(*network.UDP)
	w0, r0 := udp.Datagrams()
	res, err := kv.ReadMulti(context.Background(), "g0a", "g1b", "g2a", "g3b")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 4 || fmt.Sprint(res.Vals) != "[va vb va vb]" {
		t.Fatalf("read = %+v", res)
	}
	w1, r1 := udp.Datagrams()
	if w1-w0 != 1 || r1-r0 != 1 {
		t.Errorf("a read of 4 groups wrote %d datagrams and read %d, want 1 and 1", w1-w0, r1-r0)
	}
}

// batchProbe is a client's transport that records whom it asks for which
// groups — "A:g0,g1" for a batch, "B:g1" for one read — and can answer the
// batch to the local replica itself (batch, when set, given the transport
// underneath).
type batchProbe struct {
	network.Transport
	batch batchAnswer
	mu    sync.Mutex
	asked []string
}

func (p *batchProbe) Send(ctx context.Context, to string, req network.Message) (network.Message, error) {
	var groups []string
	if req.Kind == network.KindBatch {
		network.EachReply(req.Payload, func(m network.Message) bool { groups = append(groups, m.Group); return true })
	} else {
		groups = append(groups, req.Group)
	}
	p.mu.Lock()
	p.asked = append(p.asked, to+":"+strings.Join(groups, ","))
	p.mu.Unlock()
	if req.Kind == network.KindBatch && to == "A" && p.batch != nil {
		return p.batch(ctx, p.Transport, req)
	}
	return p.Transport.Send(ctx, to, req)
}

// batchAnswer answers a batch to the local replica in a batchProbe's stead.
type batchAnswer func(ctx context.Context, under network.Transport, req network.Message) (network.Message, error)

// sortedAsked returns what p recorded, sorted: a round's walks run
// concurrently.
func (p *batchProbe) sortedAsked() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return fmt.Sprint(slices.Sorted(slices.Values(p.asked)))
}

// TestReadBatchFailover pins what a routed read does with each outcome of
// its batch to the local replica A: a leg the batch does not serve walks on
// from B, by itself; a moved refusal goes back to the routing loop; and a
// batch refused whole as over a datagram is sent again one read per leg,
// starting at A, where each meets what it meets alone.
func TestReadBatchFailover(t *testing.T) {
	services, sim := newServiceRing(t, 3, kvDCs)
	groups := []string{"g0", "g1", "g2", "g3"}
	router := &mapRouter{byKey: map[string]string{}, def: "g0", groups: groups}
	for i, g := range groups {
		router.byKey[fmt.Sprintf("k%d", i)] = g
		router.byKey[fmt.Sprintf("big%d", i)] = g
	}
	for _, g := range groups {
		writes := map[string]string{"big0": strings.Repeat("b", 40000), "big1": strings.Repeat("b", 40000), "big2": strings.Repeat("b", 70000)}
		for i := range groups {
			k := fmt.Sprintf("k%d", i)
			writes[k] = k + "@" + g
		}
		for _, dc := range kvDCs {
			if err := services[dc].ApplyDecided(g, 1, entryBytes("seed-"+g, 0, writes)); err != nil {
				t.Fatal(err)
			}
		}
	}
	const timeout = 200 * time.Millisecond
	newKV := func(batch batchAnswer) (*KV, *batchProbe) {
		p := &batchProbe{Transport: sim.EndpointAsync("A", services["A"].AsyncHandler()), batch: batch}
		return NewKV(NewClient(1, "A", p, Config{Seed: 1, Timeout: timeout}), router), p
	}
	// slot answers A's batch with the replica's own replies, but refuses g1's
	// read with resp.
	slot := func(resp network.Message) batchAnswer {
		return func(ctx context.Context, under network.Transport, req network.Message) (network.Message, error) {
			return answerBatch(req, func(m network.Message) (network.Message, error) {
				if m.Group == "g1" {
					return resp, nil
				}
				return under.Send(ctx, "A", m)
			})
		}
	}
	all := []string{"k0", "k1", "k2", "k3"}
	for _, tc := range []struct {
		name  string
		batch batchAnswer
		keys  []string
		want  string // the values read
		asked string
	}{
		{"served", nil, all, "[k0@g0 k1@g1 k2@g2 k3@g3]", "[A:g0,g1,g2,g3]"},
		{"batch timed out",
			func(context.Context, network.Transport, network.Message) (network.Message, error) {
				return network.Message{}, network.ErrTimeout
			},
			all, "[k0@g0 k1@g1 k2@g2 k3@g3]", "[A:g0,g1,g2,g3 B:g0 B:g1 B:g2 B:g3]"},
		{"batch refused shutting down",
			func(context.Context, network.Transport, network.Message) (network.Message, error) {
				return network.Refuse(network.VerdictShutdown, ""), nil
			},
			all, "[k0@g0 k1@g1 k2@g2 k3@g3]", "[A:g0,g1,g2,g3 B:g0 B:g1 B:g2 B:g3]"},
		{"one read refused replica failed", slot(network.Refuse(network.VerdictReplicaFailed, "injected")),
			all, "[k0@g0 k1@g1 k2@g2 k3@g3]", "[A:g0,g1,g2,g3 B:g1]"},
		{"one read refused moved", slot(movedTo("g2", "k1")),
			all, "[k0@g0 k1@g2 k2@g2 k3@g3]", "[A:g0,g1,g2,g3 A:g2]"},
		{"one reply missing",
			func(context.Context, network.Transport, network.Message) (network.Message, error) {
				one := network.Message{Kind: network.KindValue, OK: true, TS: 1, Vals: []string{"v"}, Founds: []bool{true}}
				return network.Message{Kind: network.KindValue, OK: true, Payload: network.AppendBatchItem(nil, one)}, nil
			},
			[]string{"k0", "k1"}, "[v k1@g1]", "[A:g0,g1 B:g1]"},
		{"replies over a datagram", nil, []string{"big0", "big1"}, "", "[A:g0 A:g0,g1 A:g1]"},
	} {
		kv, p := newKV(tc.batch)
		res, err := kv.ReadMulti(context.Background(), tc.keys...)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got := fmt.Sprint(res.Vals); tc.want != "" && got != tc.want {
			t.Errorf("%s: read %s, want %s", tc.name, got, tc.want)
		}
		if tc.want == "" && (len(res.Vals[0]) != 40000 || len(res.Vals[1]) != 40000) {
			t.Errorf("%s: read values of %d and %d bytes", tc.name, len(res.Vals[0]), len(res.Vals[1]))
		}
		if got := p.sortedAsked(); got != tc.asked {
			t.Errorf("%s: asked %s, want %s", tc.name, got, tc.asked)
		}
	}

	// A leg whose own reply is over a datagram fails as a read of it alone
	// fails: at once, at every replica, naming the size.
	kv, p := newKV(nil)
	start := time.Now()
	_, err := kv.ReadMulti(context.Background(), "big0", "big2")
	if took := time.Since(start); took >= timeout {
		t.Errorf("the read took %v, a message timeout or more", took)
	}
	var ref *Refusal
	if err == nil || !strings.Contains(err.Error(), overLimit) || !errors.As(err, &ref) || !strings.Contains(err.Error(), "group g2") {
		t.Errorf("a 70 KB value beside a 40 KB one: %v; want g2's refusal naming the size", err)
	}
	if got, want := p.sortedAsked(), "[A:g0 A:g0,g2 A:g2 B:g2 C:g2]"; got != want {
		t.Errorf("asked %s, want %s", got, want)
	}
}
