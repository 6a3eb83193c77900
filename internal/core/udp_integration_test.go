package core

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/kvstore"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
)

// udpCluster runs three full Transaction Services over the real UDP
// transport on localhost — the same wiring cmd/txkvd uses — and returns
// client transports. This exercises the protocols over actual datagrams:
// binary wire codec, correlation, concurrent sockets.
type udpCluster struct {
	services   map[string]*Service
	transports map[string]*network.UDP
	clients    []*network.UDP
	// onReply, when set (under mu), sees every request a service answered
	// and its reply.
	onReply func(req, resp network.Message)
	mu      sync.Mutex
}

func newUDPCluster(t *testing.T, dcs ...string) *udpCluster {
	t.Helper()
	uc := &udpCluster{
		services:   make(map[string]*Service),
		transports: make(map[string]*network.UDP),
	}
	t.Cleanup(func() {
		uc.mu.Lock()
		defer uc.mu.Unlock()
		for _, tr := range uc.transports {
			tr.Close()
		}
		for _, tr := range uc.clients {
			tr.Close()
		}
	})
	// Bind every service on an ephemeral port first, then exchange peers.
	// The handler closure reads uc.services under the lock because the UDP
	// read loop starts before the services map is fully populated.
	for _, dc := range dcs {
		dc := dc
		tr, err := network.NewUDP(dc, "127.0.0.1:0", nil, func(from string, req network.Message) network.Message {
			uc.mu.Lock()
			svc, onReply := uc.services[dc], uc.onReply
			uc.mu.Unlock()
			if svc == nil {
				return network.Status(false, "service not ready")
			}
			resp := svc.Handler()(from, req)
			if onReply != nil {
				onReply(req, resp)
			}
			return resp
		})
		if err != nil {
			t.Fatal(err)
		}
		uc.transports[dc] = tr
	}
	for _, a := range dcs {
		for _, b := range dcs {
			if err := uc.transports[a].SetPeer(b, uc.transports[b].LocalAddr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	uc.mu.Lock()
	for _, dc := range dcs {
		uc.services[dc] = NewService(dc, kvstore.New(), uc.transports[dc],
			WithServiceTimeout(500*time.Millisecond))
	}
	uc.mu.Unlock()
	return uc
}

// client creates a Transaction Client homed at dc with its own UDP socket.
func (uc *udpCluster) client(t *testing.T, id int, dc string, cfg Config) *Client {
	t.Helper()
	name := fmt.Sprintf("%s-client-%d", dc, id)
	tr, err := network.NewUDP(name, "127.0.0.1:0", nil, func(string, network.Message) network.Message {
		return network.Status(false, "client endpoint")
	})
	if err != nil {
		t.Fatal(err)
	}
	uc.mu.Lock()
	uc.clients = append(uc.clients, tr)
	for peer, ptr := range uc.transports {
		if err := tr.SetPeer(peer, ptr.LocalAddr()); err != nil {
			uc.mu.Unlock()
			t.Fatal(err)
		}
	}
	uc.mu.Unlock()
	if cfg.Timeout == 0 {
		cfg.Timeout = 500 * time.Millisecond
	}
	return NewClient(id, dc, tr, cfg)
}

func TestUDPEndToEndCommit(t *testing.T) {
	uc := newUDPCluster(t, "V1", "V2", "V3")
	ctx := context.Background()
	cl := uc.client(t, 1, "V1", Config{Protocol: CP})

	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("k", "over-udp")
	res, err := tx.Commit(ctx)
	if err != nil || res.Status != stats.Committed {
		t.Fatalf("commit over UDP: %+v %v", res, err)
	}

	// Visible via a different datacenter's client, once that datacenter has
	// heard of the decision: the commit waited for V1's apply only.
	wctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := uc.services["V3"].log("g").WaitApplied(wctx, res.Pos); err != nil {
		t.Fatalf("V3 never applied position %d: %v", res.Pos, err)
	}
	cl2 := uc.client(t, 2, "V3", Config{})
	tx2, err := cl2.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	v, found, err := tx2.Read(ctx, "k")
	if err != nil || !found || v != "over-udp" {
		t.Fatalf("read over UDP = (%q,%v,%v)", v, found, err)
	}
	tx2.Abort()
}

func TestUDPEndToEndConcurrentClients(t *testing.T) {
	uc := newUDPCluster(t, "V1", "V2", "V3")
	ctx := context.Background()

	const n = 6
	results := make([]CommitResult, n)
	var wg sync.WaitGroup
	dcs := []string{"V1", "V2", "V3"}
	for i := 0; i < n; i++ {
		cl := uc.client(t, i+10, dcs[i%3], Config{Protocol: CP, Seed: int64(i + 1)})
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			tx, err := cl.Begin(ctx, "g")
			if err != nil {
				t.Errorf("begin %d: %v", i, err)
				return
			}
			tx.Write(fmt.Sprintf("key-%d", i), "v")
			res, err := tx.Commit(ctx)
			if err != nil {
				t.Errorf("commit %d: %v", i, err)
				return
			}
			results[i] = res
		}(i, cl)
	}
	wg.Wait()

	commits := 0
	for _, r := range results {
		if r.Status == stats.Committed {
			commits++
		}
	}
	// Disjoint write sets under CP: every transaction must commit.
	if commits != n {
		t.Fatalf("%d of %d non-conflicting CP transactions committed over UDP", commits, n)
	}
	// All service logs must agree after quiescing.
	for _, dc := range dcs {
		if err := uc.services[dc].Recover(ctx, "g"); err != nil {
			t.Fatalf("recover %s: %v", dc, err)
		}
	}
	ref := uc.services["V1"].LogSnapshot("g")
	for _, dc := range dcs[1:] {
		snap := uc.services[dc].LogSnapshot("g")
		if len(snap) != len(ref) {
			t.Fatalf("%s log has %d entries, V1 has %d", dc, len(snap), len(ref))
		}
	}
}

func TestUDPEndToEndDeadServiceFallback(t *testing.T) {
	uc := newUDPCluster(t, "V1", "V2", "V3")
	ctx := context.Background()

	// Seed through V1.
	cl := uc.client(t, 1, "V1", Config{})
	tx, err := cl.Begin(ctx, "g")
	if err != nil {
		t.Fatal(err)
	}
	tx.Write("k", "v")
	if res, err := tx.Commit(ctx); err != nil || res.Status != stats.Committed {
		t.Fatalf("seed: %+v %v", res, err)
	}

	// Kill V2's socket; a V2-homed client must fall back to other services.
	uc.transports["V2"].Close()
	cl2 := uc.client(t, 2, "V2", Config{Timeout: 300 * time.Millisecond})
	tx2, err := cl2.Begin(ctx, "g")
	if err != nil {
		t.Fatalf("begin with dead local service: %v", err)
	}
	v, found, err := tx2.Read(ctx, "k")
	if err != nil || !found || v != "v" {
		t.Fatalf("fallback read = (%q,%v,%v)", v, found, err)
	}
	tx2.Abort()
}

// datagrams is the number of datagrams written so far by every socket of the
// cluster, services' and clients'.
func (uc *udpCluster) datagrams() int64 {
	uc.mu.Lock()
	defer uc.mu.Unlock()
	var n int64
	for _, tr := range uc.transports {
		w, _ := tr.Datagrams()
		n += w
	}
	for _, tr := range uc.clients {
		w, _ := tr.Datagrams()
		n += w
	}
	return n
}

// TestMasterCommitDatagrams pins what a commit costs on the wire under the
// Master protocol (DESIGN.md §8): a steady-state write-only commit moves
// exactly ten datagrams — submit and verdict, an accept and an apply to each
// of the two followers with their answers — because the master's own vote and
// own apply are calls, not sends, and the client reuses the read position its
// last verdict showed. One client, so nothing combines.
func TestMasterCommitDatagrams(t *testing.T) {
	uc := newUDPCluster(t, "V1", "V2", "V3")
	ctx := context.Background()
	cl := uc.client(t, 1, "V2", Config{Protocol: Master, MasterDC: "V1"})

	// moved runs op and returns how many datagrams it set off, counted once
	// the cluster is quiet again: a commit returns at a majority of apply
	// acknowledgements, so the last follower's answer may still be on its way.
	moved := func(want int64, op func()) int64 {
		t.Helper()
		before := uc.datagrams()
		op()
		deadline := time.Now().Add(5 * time.Second)
		for uc.datagrams()-before < want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		for { // anything beyond want shows up here
			n := uc.datagrams()
			time.Sleep(20 * time.Millisecond)
			if uc.datagrams() == n || !time.Now().Before(deadline) {
				return n - before
			}
		}
	}
	commit := func() { commitWrites(t, cl, "g", map[string]string{"k": "v"}) }

	// Warm-up: V1 claims the group's mastership; the client asks its one
	// read position.
	moved(0, commit)

	for i := 0; i < 5; i++ {
		if got := moved(10, commit); got != 10 {
			t.Fatalf("steady-state commit %d moved %d datagrams, want 10 (2 submit + 4 accept + 4 apply)", i, got)
		}
	}
	self := func() {
		resp, err := uc.transports["V1"].Send(ctx, "V1", network.Message{Kind: network.KindReadPos, Group: "g"})
		if err != nil || !resp.OK || resp.TS < 6 {
			t.Fatalf("self-addressed readpos: %+v %v", resp, err)
		}
	}
	if got := moved(0, self); got != 0 {
		t.Fatalf("a self-addressed Send moved %d datagrams, want none", got)
	}
	// A client that sat idle for more than its timeout asks readpos again.
	cl.ageShown(501 * time.Millisecond)
	if got := moved(12, commit); got != 12 {
		t.Fatalf("commit after an idle timeout moved %d datagrams, want 12 (a readpos round trip more)", got)
	}
}

// TestUDPRejoinViaPagedSnapshot: a replica that was away while its peers
// wrote 2000 rows (234 KB) and compacted to the tip rejoins over real
// datagrams — the state arrives in pages that each fit one, where one reply
// carrying the whole group could never have been delivered.
func TestUDPRejoinViaPagedSnapshot(t *testing.T) {
	uc := newUDPCluster(t, "A", "B", "C")
	var mu sync.Mutex
	pages, largest := 0, 0
	uc.mu.Lock()
	uc.onReply = func(req, resp network.Message) {
		mu.Lock()
		defer mu.Unlock()
		if req.Kind == network.KindSnapshot {
			pages++
		}
		largest = max(largest, len(network.MarshalBinary(resp)))
	}
	uc.mu.Unlock()
	const tip = 40
	for _, dc := range []string{"A", "B"} {
		seedRows(t, uc.services[dc], "g", 1, tip, 50)
		if h, err := uc.services[dc].Compact("g", tip); err != nil || h != tip {
			t.Fatalf("compact %s to the tip: %d %v", dc, h, err)
		}
	}
	c := uc.services["C"]
	if err := c.Recover(context.Background(), "g"); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := c.LastApplied("g"); got != tip {
		t.Fatalf("C's watermark = %d, want the tip %d", got, tip)
	}
	// r001-07 was written once, at position 1: only the snapshot has it.
	resp := c.Handler()("client", network.Message{Kind: network.KindRead, Group: "g", Key: "r001-07", TS: tip})
	if !resp.OK || !resp.Found || len(resp.Value) != 100 {
		t.Fatalf("read of a row below the horizon = %+v", resp)
	}
	mu.Lock()
	defer mu.Unlock()
	// 64 KiB is the transport's datagram bound; the envelope around a reply
	// is a few dozen bytes.
	if pages < 4 || largest > 64<<10-256 {
		t.Fatalf("%d snapshot pages, largest reply %d bytes; want several pages, each inside a datagram", pages, largest)
	}
}
