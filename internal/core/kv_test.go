package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"paxoscp/internal/network"
	"paxoscp/internal/stats"
)

// mapRouter is a fixed key->group table with a default group: tests control
// exactly which fan-out leg every key lands on.
type mapRouter struct {
	byKey  map[string]string
	def    string
	groups []string
}

func (r *mapRouter) GroupFor(key string) string {
	if g, ok := r.byKey[key]; ok {
		return g
	}
	return r.def
}

func (r *mapRouter) Groups() []string { return r.groups }

// newKVHarness builds a 3-DC ring plus a routed KV facade homed at "A",
// with the given router.
func newKVHarness(t *testing.T, router Router) (*KV, map[string]*Service) {
	t.Helper()
	cl, services := newRingClient(t, "A", Config{Seed: 1})
	return NewKV(cl, router), services
}

var kvDCs = []string{"A", "B", "C"}

// TestKVReadMultiMergeOrder: keys interleaved across three groups (with a
// duplicate) come back in input order with the right values, regardless of
// which group's leg answered first.
func TestKVReadMultiMergeOrder(t *testing.T) {
	router := &mapRouter{
		byKey: map[string]string{
			"a1": "g0", "a2": "g0",
			"b1": "g1",
			"c1": "g2", "c2": "g2",
		},
		def:    "g0",
		groups: []string{"g0", "g1", "g2"},
	}
	kv, services := newKVHarness(t, router)
	ctx := context.Background()

	// Seed each group with its keys at position 1 (value = "<key>-val").
	for _, g := range []string{"g0", "g1", "g2"} {
		writes := map[string]string{}
		for k, grp := range router.byKey {
			if grp == g {
				writes[k] = k + "-val"
			}
		}
		b := entryBytes("seed-"+g, 0, writes)
		for _, dc := range kvDCs {
			if err := services[dc].ApplyDecided(g, 1, b); err != nil {
				t.Fatal(err)
			}
		}
	}

	keys := []string{"c1", "a1", "b1", "a2", "c2", "a1", "missing"}
	res, err := kv.ReadMulti(ctx, keys...)
	if err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if k == "missing" {
			if res.Founds[i] {
				t.Errorf("slot %d (%q): found=true for a never-written key", i, k)
			}
			continue
		}
		if !res.Founds[i] || res.Vals[i] != k+"-val" {
			t.Errorf("slot %d (%q) = (%q, %v), want (%q, true)",
				i, k, res.Vals[i], res.Founds[i], k+"-val")
		}
	}
}

// TestKVReadMultiReportsPerGroupPositions: each fan-out leg reports the
// snapshot position it was served at, per group — unequal log heights must
// show through unchanged.
func TestKVReadMultiReportsPerGroupPositions(t *testing.T) {
	router := &mapRouter{
		byKey:  map[string]string{"x": "g0", "y": "g1"},
		def:    "g0",
		groups: []string{"g0", "g1"},
	}
	kv, services := newKVHarness(t, router)
	ctx := context.Background()

	seedLog(t, services, kvDCs, "g0", 1)
	seedLog(t, services, kvDCs, "g1", 3)

	res, err := kv.ReadMulti(ctx, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Positions) != 2 {
		t.Fatalf("positions for %d groups, want 2: %v", len(res.Positions), res.Positions)
	}
	if res.Positions["g0"] != 1 || res.Positions["g1"] != 3 {
		t.Fatalf("positions = %v, want g0:1 g1:3", res.Positions)
	}
	// A whole-facade invariant: keys of the same group share one snapshot,
	// so re-reading both keys plus a third g1 key again yields one position
	// per group, not per key.
	res2, err := kv.ReadMulti(ctx, "x", "y", "y")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.Positions) != 2 {
		t.Fatalf("dup-key read: positions = %v, want 2 groups", res2.Positions)
	}
}

// groupFilterTransport fails every request concerning one group, at every
// datacenter — "the owning group is unavailable" distilled to its wire
// signature (e.g. every replica's handler refusing that group) while all
// other groups keep working.
type groupFilterTransport struct {
	network.Transport
	group string
}

func (g *groupFilterTransport) Send(ctx context.Context, to string, req network.Message) (network.Message, error) {
	if req.Group == g.group {
		return network.Message{}, fmt.Errorf("injected: group %s unreachable", g.group)
	}
	return g.Transport.Send(ctx, to, req)
}

// TestKVReadMultiOneGroupUnavailable: when exactly one owning group's legs
// all fail, the whole routed read fails — no silent partial result — and the
// error names the failed group. Keys that avoid the failed group still read
// fine through the same facade.
func TestKVReadMultiOneGroupUnavailable(t *testing.T) {
	services, sim := newServiceRing(t, "A", "B", "C")
	base := sim.Endpoint("A", services["A"].Handler())
	filtered := &groupFilterTransport{Transport: base, group: "gbad"}
	cl := NewClient(1, "A", filtered, Config{Seed: 1, Timeout: 200 * time.Millisecond})
	router := &mapRouter{
		byKey:  map[string]string{"bad": "gbad"},
		def:    "gok",
		groups: []string{"gok", "gbad"},
	}
	kv := NewKV(cl, router)
	ctx := context.Background()

	seedLog(t, services, kvDCs, "gok", 1)

	if _, err := kv.ReadMulti(ctx, "k", "bad", "k2"); err == nil {
		t.Fatal("readmulti succeeded with an unavailable owning group")
	} else {
		if !strings.Contains(err.Error(), "gbad") {
			t.Errorf("error does not name the failed group: %v", err)
		}
		if !strings.Contains(err.Error(), "1 of 2 groups unavailable") {
			t.Errorf("error does not report the failure scope: %v", err)
		}
	}
	// The healthy group still serves through the same facade.
	res, err := kv.ReadMulti(ctx, "k", "k2")
	if err != nil {
		t.Fatalf("healthy-group read failed: %v", err)
	}
	if len(res.Positions) != 1 || res.Positions["gok"] != 1 {
		t.Fatalf("positions = %v, want gok:1", res.Positions)
	}
}

// TestKVPutRoutesToOwningGroup: a routed write lands in the owning group's
// log and nowhere else; Get reads it back through the same router.
func TestKVPutRoutesToOwningGroup(t *testing.T) {
	router := &mapRouter{
		byKey:  map[string]string{"left": "g0", "right": "g1"},
		def:    "g0",
		groups: []string{"g0", "g1"},
	}
	kv, services := newKVHarness(t, router)
	ctx := context.Background()

	res, err := kv.Put(ctx, "right", "v1")
	if err != nil || res.Status != stats.Committed {
		t.Fatalf("put: %+v %v", res, err)
	}
	if v, found, err := kv.Get(ctx, "right"); err != nil || !found || v != "v1" {
		t.Fatalf("get right = (%q, %v, %v), want (v1, true, nil)", v, found, err)
	}
	// The write is in g1's log; g0's log is untouched.
	found := false
	for _, e := range services["A"].LogSnapshot("g1") {
		if _, ok := e.Writes()["right"]; ok {
			found = true
		}
	}
	if !found {
		t.Error("write missing from owning group g1's log")
	}
	if n := len(services["A"].LogSnapshot("g0")); n != 0 {
		t.Errorf("non-owning group g0 has %d log entries, want 0", n)
	}
}

// TestKVUpdateRetriesConflicts: two facades increment one counter
// concurrently; Update's re-read loop absorbs the OCC aborts and both
// increments land.
func TestKVUpdateRetriesConflicts(t *testing.T) {
	router := &mapRouter{def: "g0", groups: []string{"g0"}}
	kv, _ := newKVHarness(t, router)
	ctx := context.Background()

	incr := func(cur string, found bool) (string, error) {
		if !found {
			return "1", nil
		}
		return cur + "+1", nil
	}
	for i := 0; i < 3; i++ {
		if res, err := kv.Update(ctx, "ctr", 0, incr); err != nil || res.Status != stats.Committed {
			t.Fatalf("update %d: %+v %v", i, res, err)
		}
	}
	v, found, err := kv.Get(ctx, "ctr")
	if err != nil || !found || v != "1+1+1" {
		t.Fatalf("counter = (%q, %v, %v), want (1+1+1, true, nil)", v, found, err)
	}
}

// TestUpdateOutlastsALaggingReplica: the client's nearest replica applies 100 ms
// behind the master, so right after a commit it still serves the position
// that commit superseded. An Update of the same key must back off until the
// replica has caught up, not spend its attempts — immediate on a fast link —
// re-reading the losing position.
func TestUpdateOutlastsALaggingReplica(t *testing.T) {
	services, sim := newServiceRing(t, "A", "B", "C")
	var late sync.WaitGroup
	defer late.Wait()
	lagging := func(from string, req network.Message) network.Message {
		if req.Kind != network.KindApply {
			return services["B"].Handler()(from, req)
		}
		late.Add(1)
		go func() {
			defer late.Done()
			time.Sleep(100 * time.Millisecond)
			services["B"].Handler()(from, req)
		}()
		return network.Status(true, "")
	}
	cl := NewClient(1, "B", sim.Endpoint("B", lagging), Config{Seed: 1, Protocol: Master, MasterDC: "A", Timeout: 200 * time.Millisecond})
	kv := NewKV(cl, &mapRouter{def: "g", groups: []string{"g"}})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		res, err := kv.Update(ctx, "k", 0, func(cur string, _ bool) (string, error) { return cur + "x", nil })
		if err != nil || res.Status != stats.Committed {
			t.Fatalf("update %d behind a lagging replica: %+v %v", i, res, err)
		}
	}
	late.Wait()
	if v, _, err := kv.Get(ctx, "k"); err != nil || v != "xxx" {
		t.Fatalf("k = %q %v, want three updates applied in turn", v, err)
	}
}
