package cluster

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"paxoscp/internal/core"
	"paxoscp/internal/history"
	"paxoscp/internal/network"
	"paxoscp/internal/stats"
	"paxoscp/internal/wal"
)

// TestGrowBasic grows a quiet 2-group cluster to 4 groups and verifies the
// data contract of live migration (DESIGN.md §15) without faults: every key
// written before the grow reads back with its pre-grow value from the
// post-grow placement (migrated keys from their new group), writes after the
// grow land on the new owners, and the operator status of every group
// involved in a handoff reports its migration records.
func TestGrowBasic(t *testing.T) {
	c := New(Config{
		Topology:  MustPaperTopology("VVV"),
		NetConfig: network.SimConfig{Seed: 7, Scale: 0.002},
		Timeout:   80 * time.Millisecond,
		Groups:    2,
	})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	kv := c.NewKV(c.DCs()[0], core.Config{Protocol: core.Master, Timeout: 80 * time.Millisecond})

	const nKeys = 48
	before := c.Placement()
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("grow-k%02d", i)
		res, err := kv.Put(ctx, key, fmt.Sprintf("v%d", i))
		if err != nil || res.Status != stats.Committed {
			t.Fatalf("seed put %s: status %v err %v", key, res.Status, err)
		}
	}

	if err := c.Grow(ctx, 4); err != nil {
		t.Fatalf("grow to 4 groups: %v", err)
	}
	after := c.Placement()
	if got := len(after.Groups()); got != 4 {
		t.Fatalf("placement has %d groups after grow, want 4", got)
	}

	// The rendezvous hash must have actually moved some keys (into the added
	// groups only) — otherwise the test proves nothing.
	moved := 0
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("grow-k%02d", i)
		from, to := before.GroupFor(key), after.GroupFor(key)
		if from != to {
			moved++
			if to != "g2" && to != "g3" {
				t.Errorf("key %s moved %s -> %s: growth must move keys only into added groups", key, from, to)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no key moved in a 2->4 grow; placement vectors broken")
	}

	// Every key reads back with its pre-grow value through the grown router.
	for i := 0; i < nKeys; i++ {
		key := fmt.Sprintf("grow-k%02d", i)
		val, found, err := kv.Get(ctx, key)
		if err != nil {
			t.Fatalf("get %s after grow: %v", key, err)
		}
		if !found {
			t.Fatalf("key %s unreadable (empty) in its post-grow group %s", key, after.GroupFor(key))
		}
		if want := fmt.Sprintf("v%d", i); val != want {
			t.Fatalf("key %s = %q after grow, want %q", key, val, want)
		}
	}

	// Writes after the grow land and read back (new owners are live). The
	// Master protocol does not give read-your-writes through a datacenter
	// that is not the group's master: the master acknowledges at a majority,
	// which need not include the client's datacenter, and a plain Get reads
	// at the local watermark. What it does give is that a read at the commit
	// position sees the commit (the local replica catches up to it first), so
	// that is what reads back.
	for i := 0; i < nKeys; i += 5 {
		key := fmt.Sprintf("grow-k%02d", i)
		res, err := kv.Put(ctx, key, "post")
		if err != nil || res.Status != stats.Committed {
			t.Fatalf("post-grow put %s: status %v err %v", key, res.Status, err)
		}
		tx, err := kv.Client().BeginAt(ctx, after.GroupFor(key), res.Pos)
		if err != nil {
			t.Fatal(err)
		}
		if val, _, err := tx.Read(ctx, key); err != nil || val != "post" {
			t.Fatalf("post-grow read of %s at its commit position %d = %q err %v, want \"post\"", key, res.Pos, val, err)
		}
	}

	// A batched read spanning old and new groups merges cleanly.
	keys := make([]string, nKeys)
	for i := range keys {
		keys[i] = fmt.Sprintf("grow-k%02d", i)
	}
	mr, err := kv.ReadMulti(ctx, keys...)
	if err != nil {
		t.Fatalf("readmulti after grow: %v", err)
	}
	for i, found := range mr.Founds {
		if !found {
			t.Errorf("readmulti: key %s missing after grow", keys[i])
		}
	}

	// An ordered scan through the grown placement returns every key exactly
	// once, in order, with current values — the frozen pre-cutover rows still
	// present at the sources (no compaction ran) must lose the merge to the
	// destinations' moved-in copies, and no key may be dropped or doubled.
	sr, err := kv.Scan(ctx, "grow-k")
	if err != nil {
		t.Fatalf("scan after grow: %v", err)
	}
	if len(sr.Entries) != nKeys {
		t.Fatalf("post-grow scan returned %d entries, want %d: %+v", len(sr.Entries), nKeys, sr.Entries)
	}
	for i, e := range sr.Entries {
		wantKey := fmt.Sprintf("grow-k%02d", i)
		wantVal := fmt.Sprintf("v%d", i)
		if i%5 == 0 {
			wantVal = "post"
		}
		if e.Key != wantKey || e.Value != wantVal {
			t.Errorf("scan entry %d = (%s, %q), want (%s, %q)", i, e.Key, e.Value, wantKey, wantVal)
		}
	}

	// Operator status: the pre-existing groups report outbound handoffs, the
	// added groups report prepare/in records.
	for _, g := range []string{"g0", "g2"} {
		st := c.Service(c.DCs()[0]).Status(g)
		if len(st.Migrations) == 0 {
			t.Errorf("group %s status reports no migration records after grow", g)
		}
	}
}

// verdictDropper is a migrator transport that loses the verdict of the first
// backfill submission: the request reaches the master and commits, and the
// caller sees a timeout.
type verdictDropper struct {
	network.Transport
	dropped string         // payload of the submission whose verdict was dropped
	sends   map[string]int // submissions per distinct payload
}

func (d *verdictDropper) Send(ctx context.Context, to string, req network.Message) (network.Message, error) {
	resp, err := d.Transport.Send(ctx, to, req)
	if req.Kind != network.KindSubmit {
		return resp, err
	}
	return d.verdict(string(req.Payload), resp, err)
}

func (d *verdictDropper) Go(to string, req network.Message, done func(network.Message, error)) network.Call {
	if req.Kind != network.KindSubmit {
		return d.Transport.Go(to, req, done)
	}
	payload := string(req.Payload) // req is the caller's once Go returns
	return d.Transport.Go(to, req, func(resp network.Message, err error) {
		done(d.verdict(payload, resp, err))
	})
}

// verdict counts a verdict of the submission of payload and loses the first
// that commits.
func (d *verdictDropper) verdict(payload string, resp network.Message, err error) (network.Message, error) {
	d.sends[payload]++
	if err == nil && resp.OK && d.dropped == "" {
		d.dropped = payload
		return network.Message{}, network.ErrTimeout
	}
	return resp, err
}

// TestBackfillLostVerdictCommitsOnce is the regression test for the grow
// nemesis's "transaction mig-… appears at multiple positions" failure: the
// migrator resubmits a backfill batch whose verdict it lost, with the same
// transaction ID, and the batch used to commit a second time. The master
// must recognise the resubmission (pipeline invariant W5) and answer with
// the first commit's position.
func TestBackfillLostVerdictCommitsOnce(t *testing.T) {
	c := New(Config{
		Topology:  MustPaperTopology("VVV"),
		NetConfig: network.SimConfig{Seed: 7, Scale: 0.002},
		Timeout:   80 * time.Millisecond,
		Groups:    2,
	})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	kv := c.NewKV(c.DCs()[0], core.Config{Protocol: core.Master, Timeout: 80 * time.Millisecond})
	for i := 0; i < 48; i++ {
		if res, err := kv.Put(ctx, fmt.Sprintf("grow-k%02d", i), "v"); err != nil || res.Status != stats.Committed {
			t.Fatalf("seed put %d: status %v err %v", i, res.Status, err)
		}
	}

	step := c.Placement().Plan("g2")[0]
	for _, dc := range c.DCs() {
		c.Service(dc).EnsureGroups(step.Added)
	}
	drop := &verdictDropper{Transport: c.endpoints[c.DCs()[0]], sends: map[string]int{}}
	mig := &core.Migrator{Client: core.NewClient(500, c.DCs()[0], drop, core.Config{Protocol: core.Master, Timeout: c.cfg.Timeout})}
	if err := mig.Step(ctx, step); err != nil {
		t.Fatalf("migrate: %v", err)
	}
	if drop.sends[drop.dropped] < 2 {
		t.Fatalf("the batch whose verdict was dropped was submitted %d times; the test needs a resubmission", drop.sends[drop.dropped])
	}

	logs := make(map[string]map[int64]wal.Entry)
	for _, dc := range c.DCs() {
		logs[dc] = c.Service(dc).LogSnapshot("g2")
	}
	backfills := 0
	for id, at := range history.LiveTxns(logs) {
		if strings.HasPrefix(id, "mig-") {
			backfills++
		}
		if len(at) != 1 {
			t.Errorf("transaction %s committed at positions %v, want exactly one", id, at)
		}
	}
	if backfills == 0 {
		t.Fatal("no backfill transaction reached g2's log")
	}
}

// TestScanStaleDestinationLeg reproduces, without any randomness, the grow
// nemesis's other failure ("scan lost key gk07/gk43 mid-grow", on every scan
// until the post-storm Recover). It is skipped: the fix changes the scan
// protocol and is not made here.
//
// A routed scan served by one datacenter reads each group at that replica's
// own watermark. A replica that misses one apply message of a group stays
// behind the gap — nothing but a read at a higher position or Recover
// triggers catch-up — while its other groups keep up. So it can serve the
// source group past HandoffOut (moved rows skipped, destination hinted) and
// the destination group before that same handoff's HandoffPrepare (moved
// rows absent, nothing pending). KV.Scan accepts the destination leg because
// it shows rows moved in from an *earlier* source's handoff: its
// inbound-awareness check is per group, not per (source, destination) pair.
// The fix is to make the hint name the handoff and have the destination leg
// prove it has applied that handoff's prepare or in record.
func TestScanStaleDestinationLeg(t *testing.T) {
	t.Skip("known red: KV.Scan accepts a destination leg pinned before the hinting source's handoff (see comment)")
	c := New(Config{
		Topology:  MustPaperTopology("VVV"),
		NetConfig: network.SimConfig{Seed: 7, Scale: 0.002},
		Timeout:   80 * time.Millisecond,
		Groups:    2,
	})
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	dcs := c.DCs()
	kv := c.NewKV(dcs[0], core.Config{Protocol: core.Master, Timeout: 80 * time.Millisecond})
	const nKeys = 48
	for i := 0; i < nKeys; i++ {
		if res, err := kv.Put(ctx, fmt.Sprintf("gk%02d", i), "v"); err != nil || res.Status != stats.Committed {
			t.Fatalf("seed put %d: status %v err %v", i, res.Status, err)
		}
	}
	step := c.Placement().Plan("g2")[0]
	for _, dc := range dcs {
		c.Service(dc).EnsureGroups(step.Added)
	}
	// g0 and g1 are mastered at dcs[0] and dcs[1]; put g2's master at dcs[2]
	// and drive the migration from dcs[1], so that cutting the dcs[0]–dcs[2]
	// link starves dcs[0] of g2's entries and of nothing else.
	mig := &core.Migrator{Client: c.NewClient(dcs[1], core.Config{Protocol: core.Master,
		MasterFor: func(g string) string {
			if g == step.Added {
				return dcs[2]
			}
			return c.MasterOf(g)
		}})}
	groups := step.To.Groups()
	if err := mig.MigratePair(ctx, "g0", step.Added, groups); err != nil {
		t.Fatal(err)
	}
	c.Partition(dcs[0], dcs[2])
	if err := mig.MigratePair(ctx, "g1", step.Added, groups); err != nil {
		t.Fatal(err)
	}
	res, err := c.NewKV(dcs[0], core.Config{Protocol: core.Master, Timeout: 80 * time.Millisecond}).Scan(ctx, "gk")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Entries) != nKeys {
		t.Errorf("scan at %s returned %d of %d keys, legs pinned at %v", dcs[0], len(res.Entries), nKeys, res.Positions)
	}
}
