package core

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"
)

// mergeScanLegsModel is the sort-based merge mergeScanLegs replaced, kept as
// its reference: every row of every leg tagged with its group, sorted by key,
// then MovedIn first, then group, and the first row of each key kept.
func mergeScanLegsModel(legs map[string]scanLeg) *ScanResult {
	out := &ScanResult{Positions: make(map[string]int64, len(legs))}
	type tagged struct {
		ScanEntry
		group string
	}
	var all []tagged
	for _, leg := range legs {
		out.Positions[leg.group] = leg.pos
		for _, e := range leg.entries {
			all = append(all, tagged{ScanEntry: e, group: leg.group})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Key != all[j].Key {
			return all[i].Key < all[j].Key
		}
		if all[i].MovedIn != all[j].MovedIn {
			return all[i].MovedIn // preferred copy first
		}
		return all[i].group < all[j].group
	})
	out.Entries = make([]ScanEntry, 0, len(all))
	for _, e := range all {
		if n := len(out.Entries); n > 0 && out.Entries[n-1].Key == e.Key {
			continue // duplicate from a leg pinned across the cutover
		}
		out.Entries = append(out.Entries, e.ScanEntry)
	}
	return out
}

// fuzzLegGroups name the fuzzed legs: out of order, and "g10" before "g2", so
// that the smallest-group tie rule is lexicographic.
var fuzzLegGroups = []string{"g2", "b", "g10", "a", "aa", "c"}

// fuzzScanLegs decodes up to six legs from data: a byte for the number of
// legs, then per leg a byte for its row count and a byte per row, whose low
// five bits pick one of 32 keys and whose top bit sets MovedIn. A key picked
// twice in a leg is kept once, and a leg's rows are ascending by key, as a
// leg's pages serve them. A value names its leg, so the copy kept shows.
func fuzzScanLegs(data []byte) map[string]scanLeg {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	legs := make(map[string]scanLeg)
	for n := 1 + int(next())%len(fuzzLegGroups); len(legs) < n; {
		g := fuzzLegGroups[len(legs)]
		leg := scanLeg{group: g, pos: int64(len(legs))}
		var have [32]bool
		for rows := int(next()) % 24; rows > 0; rows-- {
			b := next()
			if k := b & 31; !have[k] {
				have[k] = true
				leg.entries = append(leg.entries, ScanEntry{Key: fmt.Sprintf("k%02d", k), Value: g, MovedIn: b&0x80 != 0})
			}
		}
		slices.SortFunc(leg.entries, func(a, b ScanEntry) int { return strings.Compare(a.Key, b.Key) })
		legs[g] = leg
	}
	return legs
}

// FuzzMergeScanLegs: the k-way merge equals the sort-based model entry for
// entry, and in Positions, over up to six legs of ascending unique keys —
// empty legs, one key in several legs, MovedIn on either copy or both.
func FuzzMergeScanLegs(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 3, 1, 2, 3})
	f.Add([]byte{1, 2, 5, 7, 2, 0x85, 7})                                     // a moved-in copy in the second leg
	f.Add([]byte{2, 2, 0x85, 7, 2, 5, 0x87, 2, 5, 7})                         // MovedIn on either copy, and a third leg
	f.Add([]byte{5, 0, 3, 1, 2, 3, 0, 3, 3, 2, 1, 3, 0x81, 0x82, 0x83, 1, 9}) // six legs, two empty
	f.Fuzz(func(t *testing.T, data []byte) {
		legs := fuzzScanLegs(data)
		want := mergeScanLegsModel(legs)
		got := mergeScanLegs(legs)
		if !slices.Equal(got.Entries, want.Entries) {
			t.Fatalf("merge of %v\n got %v\nwant %v", legs, got.Entries, want.Entries)
		}
		if !maps.Equal(got.Positions, want.Positions) {
			t.Fatalf("positions of %v: got %v, want %v", legs, got.Positions, want.Positions)
		}
	})
}

// TestKVReadMultiRepeatedKey: a key named twice in one KV.ReadMulti — found
// or missing, in one group's leg or beside another group's keys — reads the
// same value and found flag into both of its slots.
func TestKVReadMultiRepeatedKey(t *testing.T) {
	router := &mapRouter{byKey: map[string]string{"x": "g1"}, def: "g0", groups: []string{"g0", "g1"}}
	kv, services := newKVHarness(t, router)
	ctx := context.Background()
	for _, g := range router.groups {
		b := entryBytes("seed-"+g, 0, map[string]string{"a": "a-" + g, "x": "x-" + g})
		for _, dc := range kvDCs {
			if err := services[dc].ApplyDecided(g, 1, b); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, keys := range [][]string{
		{"a", "a"},
		{"nope", "nope"},
		{"a", "x", "a", "nope", "x", "nope"},
	} {
		res, err := kv.ReadMulti(ctx, keys...)
		if err != nil {
			t.Fatalf("%v: %v", keys, err)
		}
		for i, k := range keys {
			j := slices.Index(keys, k)
			if res.Vals[i] != res.Vals[j] || res.Founds[i] != res.Founds[j] {
				t.Errorf("%v: slot %d reads (%q, %v), slot %d (%q, %v)", keys, j, res.Vals[j], res.Founds[j], i, res.Vals[i], res.Founds[i])
			}
			want, found := "", k != "nope"
			if found {
				want = k + "-" + router.GroupFor(k)
			}
			if res.Vals[i] != want || res.Founds[i] != found {
				t.Errorf("%v: slot %d (%q) = (%q, %v), want (%q, %v)", keys, i, k, res.Vals[i], res.Founds[i], want, found)
			}
		}
	}
}
