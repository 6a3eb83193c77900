package core

import (
	"bytes"
	"context"
	"errors"
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
// other groups keep working. reply, when set, is the answer instead of an
// unreachable error. A batch's requests meet the rule one by one
// (answerBatch).
type groupFilterTransport struct {
	network.Transport
	group string
	reply func() (network.Message, error)
	// script, when set, answers the group's data requests instead: it
	// refuses them as scripted and lets the rest through.
	script *verdictScript
}

func (g *groupFilterTransport) Send(ctx context.Context, to string, req network.Message) (network.Message, error) {
	if req.Kind == network.KindBatch {
		return answerBatch(req, func(m network.Message) (network.Message, error) { return g.Send(ctx, to, m) })
	}
	if resp, filtered, err := g.filter(req); filtered {
		return resp, err
	}
	return g.Transport.Send(ctx, to, req)
}

func (g *groupFilterTransport) Go(to string, req network.Message, done func(network.Message, error)) network.Call {
	if resp, filtered, err := g.filter(req); filtered {
		done(resp, err)
		return network.Call{}
	}
	return g.Transport.Go(to, req, done)
}

// filter answers req itself when it concerns the group, and reports whether
// it did; a request it lets through is the underlying transport's.
func (g *groupFilterTransport) filter(req network.Message) (network.Message, bool, error) {
	switch {
	case req.Group != g.group:
		return network.Message{}, false, nil
	case g.script != nil:
		resp, ok := g.script.next(req)
		return resp, ok, nil
	case g.reply != nil:
		resp, err := g.reply()
		return resp, true, err
	}
	return network.Message{}, true, fmt.Errorf("injected: group %s unreachable", g.group)
}

// answerBatch answers a batch request (network.KindBatch) the way a test
// transport answers its requests one at a time: each request in it gets
// answer's reply in its slot, and an error of answer's is the whole
// batch's, as if the datagram had been lost.
func answerBatch(req network.Message, answer func(network.Message) (network.Message, error)) (network.Message, error) {
	var payload []byte
	var failed error
	err := network.EachRequest(req.Payload, func(m network.Message) bool {
		resp, err := answer(m)
		if failed = err; err == nil {
			payload = network.AppendBatchItem(payload, resp)
		}
		return err == nil
	})
	if err == nil {
		err = failed
	}
	if err != nil {
		return network.Message{}, err
	}
	return network.Message{Kind: network.KindValue, OK: true, Payload: payload}, nil
}

// verdictScript refuses a group's reads of keys and submits — the requests a
// migration verdict answers — with the n-th request's scripted refusal, and
// counts the requests it refused. Every other request passes, a read of no
// keys (a read position) among them.
type verdictScript struct {
	refuse  func(n int) (network.Message, bool)
	mu      sync.Mutex
	n       int
	refused int
}

func (s *verdictScript) next(req network.Message) (network.Message, bool) {
	switch {
	case req.Kind == network.KindReadMulti && len(req.Keys) > 0, req.Kind == network.KindSubmit:
	default:
		return network.Message{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	resp, ok := s.refuse(s.n)
	s.n++
	if ok {
		s.refused++
	}
	return resp, ok
}

func (s *verdictScript) count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refused
}

// movedTo is a VerdictMoved refusal naming the destination group and keys.
func movedTo(group string, keys ...string) network.Message {
	resp := network.Refuse(network.VerdictMoved, "")
	resp.Value, resp.Keys = group, keys
	return resp
}

// refuseFirst refuses the first k requests with resp and serves the rest;
// k < 0 refuses every request.
func refuseFirst(k int, resp network.Message) func(int) (network.Message, bool) {
	return func(n int) (network.Message, bool) { return resp, k < 0 || n < k }
}

// TestKVFollowsMigrationVerdicts pins how every keyed KV operation follows
// the migration verdicts of its group's replicas (DESIGN.md §15). Groups
// g0, g1 and g2 each hold a, b and c valued "<key>@<group>"; the router puts
// a and b in g0 and c in g1, and g0's reads and submits are refused as
// scripted. A VerdictMoved refusal re-routes the keys it names — all of the
// leg's keys when it names none — to the group its hint names, and
// VerdictMigrating waits and asks again. Each operation gives up after
// kvMovedHops hops or kvMigratingRetries waits, and a context cancelled
// during a wait ends it with the context's error.
func TestKVFollowsMigrationVerdicts(t *testing.T) {
	services, sim := newServiceRing(t, 3, kvDCs)
	groups := []string{"g0", "g1", "g2"}
	for _, g := range groups {
		b := entryBytes("seed-"+g, 0, map[string]string{"a": "a@" + g, "b": "b@" + g, "c": "c@" + g})
		for _, dc := range kvDCs {
			if err := services[dc].ApplyDecided(g, 1, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	router := &mapRouter{byKey: map[string]string{"c": "g1"}, def: "g0", groups: groups}
	newKV := func(script *verdictScript, timeout time.Duration) *KV {
		tr := &groupFilterTransport{Transport: sim.EndpointAsync("A", services["A"].AsyncHandler()), group: "g0", script: script}
		return NewKV(NewClient(1, "A", tr, Config{Seed: 1, Protocol: Master, MasterDC: "A", Timeout: timeout}), router)
	}
	ctx := context.Background()
	wrote := func(group, key, val string) bool {
		for _, e := range services["A"].LogSnapshot(group) {
			if e.Writes()[key] == val {
				return true
			}
		}
		return false
	}

	t.Run("readmulti", func(t *testing.T) {
		for _, tc := range []struct {
			name    string
			refuse  func(int) (network.Message, bool)
			want    []string
			groups  []string // the groups Positions names
			refused int
		}{
			{"moved names b", refuseFirst(1, movedTo("g2", "b")), []string{"a@g0", "b@g2", "c@g1"}, []string{"g0", "g1", "g2"}, 1},
			{"moved names no key", refuseFirst(1, movedTo("g2")), []string{"a@g2", "b@g2", "c@g1"}, []string{"g1", "g2"}, 1},
			{"migrating three times", refuseFirst(3, network.Refuse(network.VerdictMigrating, "")), []string{"a@g0", "b@g0", "c@g1"}, []string{"g0", "g1"}, 3},
		} {
			script := &verdictScript{refuse: tc.refuse}
			res, err := newKV(script, 200*time.Millisecond).ReadMulti(ctx, "a", "b", "c")
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if fmt.Sprint(res.Vals) != fmt.Sprint(tc.want) {
				t.Errorf("%s: values %v, want %v", tc.name, res.Vals, tc.want)
			}
			var got []string
			for _, g := range groups {
				if _, ok := res.Positions[g]; ok {
					got = append(got, g)
				}
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.groups) {
				t.Errorf("%s: positions %v, want groups %v", tc.name, res.Positions, tc.groups)
			}
			if n := script.count(); n != tc.refused {
				t.Errorf("%s: %d requests refused, want %d", tc.name, n, tc.refused)
			}
		}
	})

	t.Run("get", func(t *testing.T) {
		for _, tc := range []struct {
			name, key string
			refuse    func(int) (network.Message, bool)
			want      string
		}{
			{"moved names the key", "b", refuseFirst(1, movedTo("g2", "b")), "b@g2"},
			{"moved names no key", "a", refuseFirst(1, movedTo("g2")), "a@g2"},
			{"migrating twice", "a", refuseFirst(2, network.Refuse(network.VerdictMigrating, "")), "a@g0"},
		} {
			if v, found, err := newKV(&verdictScript{refuse: tc.refuse}, 200*time.Millisecond).Get(ctx, tc.key); err != nil || !found || v != tc.want {
				t.Errorf("%s: get %s = (%q, %v, %v), want %q", tc.name, tc.key, v, found, err, tc.want)
			}
		}
	})

	t.Run("update", func(t *testing.T) {
		var seen string
		res, err := newKV(&verdictScript{refuse: refuseFirst(1, movedTo("g1", "a"))}, 200*time.Millisecond).
			Update(ctx, "a", 0, func(cur string, _ bool) (string, error) { seen = cur; return "updated", nil })
		if err != nil || res.Status != stats.Committed {
			t.Fatalf("update: %+v %v", res, err)
		}
		if seen != "a@g1" || !wrote("g1", "a", "updated") || wrote("g0", "a", "updated") {
			t.Errorf("update read %q and wrote g1: %v, g0: %v; want it read and written at g1 only",
				seen, wrote("g1", "a", "updated"), wrote("g0", "a", "updated"))
		}
	})

	t.Run("put", func(t *testing.T) {
		// A submit refused VerdictMoved is handed back (verdictRules) and names
		// no keys: Put re-routes it whole.
		res, err := newKV(&verdictScript{refuse: refuseFirst(1, movedTo("g2"))}, 200*time.Millisecond).Put(ctx, "a", "put")
		if err != nil || res.Status != stats.Committed {
			t.Fatalf("put: %+v %v", res, err)
		}
		if !wrote("g2", "a", "put") || wrote("g0", "a", "put") {
			t.Errorf("put wrote g2: %v, g0: %v; want g2 only", wrote("g2", "a", "put"), wrote("g0", "a", "put"))
		}
	})

	keyed := map[string]func(ctx context.Context, kv *KV) error{
		"get":       func(ctx context.Context, kv *KV) error { _, _, err := kv.Get(ctx, "a"); return err },
		"readmulti": func(ctx context.Context, kv *KV) error { _, err := kv.ReadMulti(ctx, "a", "b"); return err },
		"put":       func(ctx context.Context, kv *KV) error { _, err := kv.Put(ctx, "a", "x"); return err },
		"update": func(ctx context.Context, kv *KV) error {
			_, err := kv.Update(ctx, "a", 0, func(string, bool) (string, error) { return "x", nil })
			return err
		},
	}
	migrating := network.Refuse(network.VerdictMigrating, "")

	t.Run("hop budget", func(t *testing.T) {
		for name, op := range keyed {
			script := &verdictScript{refuse: refuseFirst(-1, movedTo("g0"))}
			if err := op(ctx, newKV(script, 200*time.Millisecond)); err == nil || script.count() != kvMovedHops+1 {
				t.Errorf("%s: %d refusals, error %v; want %d refusals and an error", name, script.count(), err, kvMovedHops+1)
			}
		}
	})

	t.Run("wait budget", func(t *testing.T) {
		for name, op := range keyed {
			// 8 ms: the wait between tries is its eighth, the 1 ms floor.
			script := &verdictScript{refuse: refuseFirst(-1, migrating)}
			if err := op(ctx, newKV(script, 8*time.Millisecond)); err == nil || script.count() != kvMigratingRetries+1 {
				t.Errorf("%s: %d refusals, error %v; want %d refusals and an error", name, script.count(), err, kvMigratingRetries+1)
			}
		}
	})

	t.Run("cancelled during a wait", func(t *testing.T) {
		for name, op := range keyed {
			// 200 ms: each wait is 25 ms, and the context ends in the second.
			cctx, cancel := context.WithCancel(ctx)
			stop := time.AfterFunc(40*time.Millisecond, cancel)
			err := op(cctx, newKV(&verdictScript{refuse: refuseFirst(-1, migrating)}, 200*time.Millisecond))
			stop.Stop()
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s: %v, want the context's error", name, err)
			}
		}
	})
}

// TestKVReadMultiOneGroupUnavailable: when exactly one owning group's legs
// all fail, the whole routed read fails — no silent partial result — and the
// error names the failed group. Keys that avoid the failed group still read
// fine through the same facade.
func TestKVReadMultiOneGroupUnavailable(t *testing.T) {
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	base := sim.EndpointAsync("A", services["A"].AsyncHandler())
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

// TestKVUnavailableKeepsCauses: the error of a routed ReadMulti or Scan one
// of whose legs failed wraps that leg's cause, so errors.Is and errors.As
// match it as they match Get's: a timed-out leg is a
// context.DeadlineExceeded, a refused one a *Refusal with its verdict.
func TestKVUnavailableKeepsCauses(t *testing.T) {
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	seedLog(t, services, kvDCs, "gok", 1)
	router := &mapRouter{byKey: map[string]string{"bad": "gbad"}, def: "gok", groups: []string{"gok", "gbad"}}
	ctx := context.Background()
	for _, tc := range []struct {
		name    string
		reply   func() (network.Message, error)
		matches func(error) bool
	}{
		{
			name:    "timed out",
			reply:   func() (network.Message, error) { return network.Message{}, context.DeadlineExceeded },
			matches: func(err error) bool { return errors.Is(err, context.DeadlineExceeded) },
		},
		{
			name:  "refused",
			reply: func() (network.Message, error) { return network.Refuse(network.VerdictReplicaFailed, "injected"), nil },
			matches: func(err error) bool {
				var ref *Refusal
				return errors.As(err, &ref) && ref.Verdict == network.VerdictReplicaFailed
			},
		},
	} {
		tr := &groupFilterTransport{Transport: sim.EndpointAsync("A", services["A"].AsyncHandler()), group: "gbad", reply: tc.reply}
		kv := NewKV(NewClient(1, "A", tr, Config{Seed: 1, Timeout: 200 * time.Millisecond}), router)
		_, rerr := kv.ReadMulti(ctx, "k", "bad")
		_, serr := kv.Scan(ctx, "")
		for op, err := range map[string]error{"readmulti": rerr, "scan": serr} {
			if err == nil || !tc.matches(err) || !strings.Contains(err.Error(), "1 of 2 groups unavailable: group gbad: ") {
				t.Errorf("%s leg: %s error %v does not keep its cause", tc.name, op, err)
			}
		}
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
	services, sim := newServiceRing(t, 3, []string{"A", "B", "C"})
	var late sync.WaitGroup
	defer late.Wait()
	lagging := func(from string, req network.Message, reply func(network.Message)) {
		if req.Kind != network.KindApply {
			services["B"].AsyncHandler()(from, req, reply)
			return
		}
		// The apply outlives this reply, and req is the sender's until then.
		req.Payload = bytes.Clone(req.Payload)
		reply(network.Status(true, ""))
		late.Add(1)
		go func() {
			time.Sleep(100 * time.Millisecond)
			services["B"].AsyncHandler()(from, req, func(network.Message) { late.Done() })
		}()
	}
	cl := NewClient(1, "B", sim.EndpointAsync("B", lagging), Config{Seed: 1, Protocol: Master, MasterDC: "A", Timeout: 200 * time.Millisecond})
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

// TestKVSpentBudgetKeepsRefusal: an operation that runs out of hops or waits
// fails with one error for every keyed operation: it names the operation and
// the budget, and wraps the last refusal, so errors.As finds its verdict.
func TestKVSpentBudgetKeepsRefusal(t *testing.T) {
	services, sim := newServiceRing(t, 3, kvDCs)
	router := &mapRouter{def: "g0", groups: []string{"g0"}}
	ctx := context.Background()
	for _, tc := range []struct {
		refusal network.Message
		budget  string
	}{
		{movedTo("g0"), fmt.Sprintf("still moved after %d hops: ", kvMovedHops)},
		{network.Refuse(network.VerdictMigrating, ""), fmt.Sprintf("still migrating after %d waits: ", kvMigratingRetries)},
	} {
		for name, op := range map[string]func(kv *KV) error{
			"get":       func(kv *KV) error { _, _, err := kv.Get(ctx, "k"); return err },
			"readmulti": func(kv *KV) error { _, err := kv.ReadMulti(ctx, "k", "j"); return err },
			"put":       func(kv *KV) error { _, err := kv.Put(ctx, "k", "v"); return err },
			"update": func(kv *KV) error {
				_, err := kv.Update(ctx, "k", 0, func(string, bool) (string, error) { return "v", nil })
				return err
			},
		} {
			tr := &groupFilterTransport{Transport: sim.EndpointAsync("A", services["A"].AsyncHandler()), group: "g0",
				script: &verdictScript{refuse: refuseFirst(-1, tc.refusal)}}
			// 8 ms: the wait between tries is the 1 ms floor.
			kv := NewKV(NewClient(1, "A", tr, Config{Seed: 1, Protocol: Master, MasterDC: "A", Timeout: 8 * time.Millisecond}), router)
			err := op(kv)
			var ref *Refusal
			if !errors.As(err, &ref) || ref.Verdict != tc.refusal.Verdict || !strings.HasPrefix(fmt.Sprint(err), "core: kv "+name+": "+tc.budget) {
				t.Errorf("%s: %v; want %q and a %s refusal", name, err, "core: kv "+name+": "+tc.budget+"…", tc.refusal.Verdict)
			}
		}
	}
}
