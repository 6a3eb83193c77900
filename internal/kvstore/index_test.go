package kvstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// treeStats is what checkTree saw of a tree.
type treeStats struct {
	keys  []string // the leaf chain, in chain order
	nodes int
	bytes int // node headers plus the capacity of every keys and kids slice
}

// checkTree walks the whole tree and fails on a broken invariant: keys sorted
// within and across leaves, every key inside its separators, all leaves at one
// depth, no empty node below the root, and the leaf chain visiting exactly the
// leaves the tree holds, in order.
func checkTree(t *testing.T, ix *index) treeStats {
	t.Helper()
	var st treeStats
	var leaves []*node
	leafDepth := -1
	var walk func(n *node, depth int, lo, hi string, bounded bool)
	walk = func(n *node, depth int, lo, hi string, bounded bool) {
		st.nodes++
		// A node header lands in the 64-byte size class.
		st.bytes += 64 + cap(n.keys)*int(unsafe.Sizeof("")) + cap(n.kids)*int(unsafe.Sizeof(n))
		if !sort.StringsAreSorted(n.keys) {
			t.Fatalf("node keys unsorted: %q", n.keys)
		}
		for _, k := range n.keys {
			if k < lo || (bounded && k >= hi) {
				t.Fatalf("key %q outside its node's range [%q, %q)", k, lo, hi)
			}
		}
		if n.kids == nil {
			if leafDepth < 0 {
				leafDepth = depth
			}
			if depth != leafDepth {
				t.Fatalf("leaf at depth %d, another at %d", depth, leafDepth)
			}
			if len(n.keys) == 0 && n != ix.root {
				t.Fatal("empty leaf below the root")
			}
			if len(n.keys) > leafCap {
				t.Fatalf("leaf holds %d keys", len(n.keys))
			}
			leaves = append(leaves, n)
			return
		}
		if len(n.kids) == 0 || len(n.kids) > innerCap || len(n.keys) != len(n.kids)-1 {
			t.Fatalf("inner node with %d kids and %d separators", len(n.kids), len(n.keys))
		}
		for i, kid := range n.kids {
			klo, khi, kb := lo, hi, bounded
			if i > 0 {
				klo = n.keys[i-1]
			}
			if i < len(n.keys) {
				khi, kb = n.keys[i], true
			}
			walk(kid, depth+1, klo, khi, kb)
		}
	}
	walk(ix.root, 0, "", "", false)
	lf := leaves[0]
	for i, want := range leaves {
		if lf != want {
			t.Fatalf("leaf chain leaves the tree's leaf order at leaf %d", i)
		}
		st.keys = append(st.keys, lf.keys...)
		lf = lf.next
	}
	if lf != nil {
		t.Fatal("leaf chain runs past the last leaf")
	}
	if !sort.StringsAreSorted(st.keys) {
		t.Fatal("leaf chain unsorted")
	}
	return st
}

// TestIndexAgainstOracle drives the tree and a sorted slice with the same
// seeded inserts and deletes — duplicates and absent keys included — and
// compares pages for cursors inside, before and beyond the prefix region, the
// empty prefix, and prefixes one of which is a prefix of the other. Deleting
// everything must give the nodes back.
func TestIndexAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	prefixes := []string{"a/", "a0", "a", "b/", "ab/", ""}
	randKey := func() string {
		return fmt.Sprintf("%s%d", prefixes[rng.Intn(len(prefixes)-1)], rng.Intn(6000))
	}
	ix := &index{root: &node{}}
	live := map[string]bool{}
	oracle := func() []string {
		keys := make([]string, 0, len(live))
		for k := range live {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys
	}
	compare := func(op int) {
		t.Helper()
		sorted := oracle()
		if st := checkTree(t, ix); !slices.Equal(st.keys, sorted) {
			t.Fatalf("after %d ops the tree holds %d keys, the oracle %d", op, len(st.keys), len(sorted))
		}
		for i := 0; i < 20; i++ {
			prefix := prefixes[rng.Intn(len(prefixes))]
			after := ""
			switch rng.Intn(4) {
			case 0: // inside the region, usually between keys
				after = prefix + fmt.Sprint(rng.Intn(6000))
			case 1: // before it
				after = "A"
			case 2: // beyond it
				after = prefix + "~"
			}
			max := 1 + rng.Intn(200)
			var want []string
			for _, k := range sorted {
				if len(want) < max && k > after && strings.HasPrefix(k, prefix) {
					want = append(want, k)
				}
			}
			if got := ix.page(nil, prefix, after, max); !slices.Equal(got, want) {
				t.Fatalf("page(%q, after %q, max %d): %d keys starting %q, want %d starting %q",
					prefix, after, max, len(got), got[:min(len(got), 3)], len(want), want[:min(len(want), 3)])
			}
		}
	}
	for op := 0; op < 60000; op++ {
		k := randKey()
		if rng.Intn(10) < 7 {
			ix.insert(k) // a duplicate when live[k]
			live[k] = true
		} else {
			ix.delete(k) // absent when !live[k]
			delete(live, k)
		}
		if op%5000 == 0 {
			compare(op)
		}
	}
	compare(60000)
	if st := checkTree(t, ix); st.nodes < innerCap+2 {
		t.Fatalf("only %d nodes for %d keys: the run never split an inner node", st.nodes, len(st.keys))
	}

	for i, k := range oracle() { // sorted: front to back, as compaction deletes
		if i%2 == 0 {
			ix.delete(k)
			delete(live, k)
		}
	}
	compare(-1)
	for k := range live { // and the rest in no order
		ix.delete(k)
		ix.delete(k) // absent now
	}
	if st := checkTree(t, ix); st.nodes != 1 || len(st.keys) != 0 {
		t.Fatalf("emptied tree keeps %d nodes and %d keys", st.nodes, len(st.keys))
	}
	if got := ix.page(nil, "", "", 10); len(got) != 0 {
		t.Fatalf("emptied tree pages %q", got)
	}
	ix.insert("again")
	if got := ix.page(nil, "", "", 10); !slices.Equal(got, []string{"again"}) {
		t.Fatalf("emptied tree, one insert: pages %q", got)
	}
}

// TestIndexBytesPerKey pins the index's one cost, memory. A string header is
// 16 B; everything above that is room left in leaves, node headers and the
// inner nodes. The bound that matters is on the key mix of a replica: 10 000
// data keys in no order, and the acceptor and log rows of 80 000 positions as
// commits create them — interleaved, each an ascending run whose keys are not
// zero-padded, so that a decade of it sweeps forward between the keys of the
// last one, ten at a time, rather than appending. Keys in ascending order
// fill every leaf; keys in no order are what the tree is worst at.
func TestIndexBytesPerKey(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data := func(n int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("data/g/user%06d", i)
		}
		return keys
	}
	shuffled := func(keys []string) []string {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		return keys
	}
	replica := shuffled(data(10000))
	for pos := int64(1); pos <= 80000; pos++ {
		replica = append(replica, PosKey("acc/", "g", pos), PosKey("log/", "g", pos))
	}
	for _, c := range []struct {
		name  string
		keys  []string
		bound float64
	}{
		{"replica", replica, 20},
		{"ascending", data(100000), 17.5},
		{"shuffled", shuffled(data(100000)), 26},
	} {
		ix := &index{root: &node{}}
		for _, k := range c.keys {
			ix.insert(k)
		}
		st := checkTree(t, ix)
		if len(st.keys) != len(c.keys) {
			t.Fatalf("%s: %d keys, inserted %d", c.name, len(st.keys), len(c.keys))
		}
		perKey := float64(st.bytes) / float64(len(st.keys))
		t.Logf("%s: %d keys in %d nodes, %.2f B of index per key", c.name, len(st.keys), st.nodes, perKey)
		if perKey > c.bound {
			t.Errorf("%s: %.2f B of index per key, want at most %v", c.name, perKey, c.bound)
		}
	}
}

// FuzzIndexOps drives the tree and a sorted-slice model with the same
// operations, decoded from the input: inserts and deletes of keys of any
// bytes — empty, sharing a long stem, above 0x7f — runs of up to 256 keys
// under one stem, inserted or deleted ascending or descending, whose
// unpadded numbers sweep each decade forward between the keys of the last
// (the shape of position keys), and pages from any cursor under any prefix.
// The tree must keep its invariants and hold the model's keys, and every
// page must be the model's.
func FuzzIndexOps(f *testing.F) {
	f.Add([]byte("\x00\x01a\x00\x01b\x01\x01a\x03\x00\x00\x05"))
	f.Add([]byte("\x02\x02k/\xff\x06\x02k/\xc8\x0b\x01k\x00\x10\x03\x00\x00\x40"))
	f.Add([]byte("\x02\x00\xff\x0a\x01\x00\x03\x01\xff\x01\x00\x07\x03\x00\x03\x31\x32\x38\x4f"))
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			b := in[0]
			in = in[1:]
			return int(b)
		}
		key := func() string {
			n := min(next()%8, len(in))
			k := string(in[:n])
			in = in[n:]
			return k
		}
		ix := &index{root: &node{}}
		var model []string
		insert := func(k string) {
			ix.insert(k)
			if i, found := slices.BinarySearch(model, k); !found {
				model = slices.Insert(model, i, k)
			}
		}
		remove := func(k string) {
			ix.delete(k)
			if i, found := slices.BinarySearch(model, k); found {
				model = slices.Delete(model, i, i+1)
			}
		}
		for ops := 0; len(in) > 0 && ops < 64; ops++ {
			switch op := next(); op % 4 {
			case 0:
				insert(key())
			case 1:
				remove(key())
			case 2:
				stem, n := key(), 1+next()
				for i := range n {
					if op&8 != 0 {
						i = n - 1 - i
					}
					if k := stem + strconv.Itoa(i); op&4 != 0 {
						remove(k)
					} else {
						insert(k)
					}
				}
			case 3:
				prefix, after, max := key(), key(), 1+next()%80
				var want []string
				for _, k := range model {
					if len(want) < max && k > after && strings.HasPrefix(k, prefix) {
						want = append(want, k)
					}
				}
				if got := ix.page(nil, prefix, after, max); !slices.Equal(got, want) {
					t.Fatalf("page(%q, after %q, max %d) = %q, want %q", prefix, after, max, got, want)
				}
			}
		}
		if st := checkTree(t, ix); !slices.Equal(st.keys, model) {
			t.Fatalf("the tree holds %d keys, the model %d", len(st.keys), len(model))
		}
	})
}
