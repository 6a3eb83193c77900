package core

import (
	"context"
	"fmt"
	"testing"
)

// readAllocCluster is a three-replica UDP loopback cluster holding four
// groups, g0–g3, each with the rows s/<g>/r00–r09 and the keys <g>a and <g>b,
// applied at every replica, and a CP client homed at V1.
func readAllocCluster(t *testing.T) (*Client, Router) {
	t.Helper()
	uc := newUDPCluster(t, "V1", "V2", "V3")
	groups := []string{"g0", "g1", "g2", "g3"}
	router := &mapRouter{byKey: map[string]string{}, def: "g0", groups: groups}
	for _, g := range groups {
		writes := map[string]string{g + "a": "va", g + "b": "vb"}
		router.byKey[g+"a"], router.byKey[g+"b"] = g, g
		for i := 0; i < 10; i++ {
			k := fmt.Sprintf("s/%s/r%02d", g, i)
			writes[k], router.byKey[k] = "row", g
		}
		b := entryBytes("seed-"+g, 0, writes)
		for dc, s := range uc.services {
			if err := s.ApplyDecided(g, 1, b); err != nil {
				t.Fatalf("seed %s at %s: %v", g, dc, err)
			}
		}
	}
	return uc.client(t, 1, "V1", Config{Protocol: CP}), router
}

// TestReadPathAllocs pins what the read path allocates per call, in the
// whole process — client, transport, serving replica and the cluster's
// handler wrapper (one per request) together — on a loopback cluster: a
// 4-key KV.ReadMulti over two groups, a KV.Scan over four groups of one page
// each, and a one-key Tx.Read with its Begin. A read leg is one request with
// no transaction around it, a scanned row is copied once into its leg and
// once into the result, and the serving replica names its rows in a reused
// buffer; what is left is mostly the wire's: each reply's columns, made by
// the replica and again by the client's decode, and one string per value.
func TestReadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the plain run enforces the pin")
	}
	cl, router := readAllocCluster(t)
	kv := NewKV(cl, router)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		max  float64
		op   func() error
	}{
		{"KV.ReadMulti 4 keys, 2 groups", 18, func() error {
			res, err := kv.ReadMulti(ctx, "g0a", "g1a", "g0b", "g1b")
			if err == nil && (!res.Founds[3] || res.Vals[3] != "vb" || len(res.Positions) != 2) {
				err = fmt.Errorf("read = %+v", res)
			}
			return err
		}},
		{"KV.ReadMulti 4 keys, 4 groups", 22, func() error {
			res, err := kv.ReadMulti(ctx, "g0a", "g1b", "g2a", "g3b")
			if err == nil && (!res.Founds[3] || res.Vals[3] != "vb" || len(res.Positions) != 4) {
				err = fmt.Errorf("read = %+v", res)
			}
			return err
		}},
		{"KV.Scan 4 groups", 136, func() error {
			res, err := kv.Scan(ctx, "s/")
			if err == nil && (len(res.Entries) != 40 || len(res.Positions) != 4) {
				err = fmt.Errorf("scan = %d rows at %v", len(res.Entries), res.Positions)
			}
			return err
		}},
		{"Tx.Read", 12, func() error {
			tx, _ := cl.Begin(ctx, "g2")
			defer tx.Abort()
			v, found, err := tx.Read(ctx, "g2a")
			if err == nil && (!found || v != "va") {
				err = fmt.Errorf("read = %q, %v", v, found)
			}
			return err
		}},
	} {
		if err := tc.op(); err != nil { // warm the pools and the clients' tables
			t.Fatalf("%s: %v", tc.name, err)
		}
		var err error
		allocs := testing.AllocsPerRun(200, func() {
			if e := tc.op(); e != nil {
				err = e
			}
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		t.Logf("%s: %.1f allocations", tc.name, allocs)
		if allocs > tc.max {
			t.Errorf("%s costs %.1f allocations, want at most %.0f", tc.name, allocs, tc.max)
		}
	}
}
