package kvstore

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The store-wide ordered index (DESIGN.md §16): a B+ tree holding every key
// that has a row, once, under its own lock. The shard maps stay the truth
// about rows; the tree only orders their keys, so a leaf entry is a string
// header and nothing else. It is updated wherever a shard map gains or loses
// a key, under that shard's lock (lock order: shard, then row, then index),
// and read by copying a page of keys out — a reader takes no other lock while
// it holds this one, because Delete holds them the other way round.
//
// Insert, delete and seek cost O(log n); a page costs its own length. A
// delete removes the key at once and a node that empties is unlinked, so the
// tree holds no ghosts and shrinks to one empty leaf when the store does.
// Nodes that merely run low are not merged: a leaf is born of a split with
// room for leafCap keys, because it is about to grow, but deletes shrink its
// slice back to its content in steps of nodeStep, so a sparse leaf costs its
// header, not its capacity.

const (
	leafCap  = 64 // keys in a leaf: 1 KB of string headers, one seek per 64 rows walked
	innerCap = 64 // children of an inner node
	nodeStep = 8  // a slice that is out of room grows, and a leaf that deletes emptied shrinks, by this many entries
)

// node is a leaf (kids == nil) or an inner node. An inner node's keys[i]
// separates kids[i] from kids[i+1]: every key under kids[i+1] is at or above
// it, every key under kids[i] below. All leaves sit at one depth.
type node struct {
	keys []string
	kids []*node
	next *node // the leaf chain, in key order
}

type index struct {
	mu   sync.RWMutex
	root *node
	// visited counts the tree entries pages have looked at — one per level
	// of the seek, the leaf keys returned and the one that ended the walk —
	// so a test can pin that a page costs what it returns, whatever was
	// inserted elsewhere.
	visited atomic.Int64
}

// child returns which kid of an inner node covers key: the number of
// separators at or below it.
func (n *node) child(key string) int {
	return sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
}

// insertAt puts v at s[i], growing a full slice by nodeStep, not doubling it.
func insertAt[T any](s []T, i int, v T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, len(s)+nodeStep), s...)
	}
	s = s[:len(s)+1]
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// fit copies keys into a slice with room for one more at least and nodeStep
// more at most.
func fit(keys []string) []string {
	return append(make([]string, 0, len(keys)/nodeStep*nodeStep+nodeStep), keys...)
}

// insert adds key; a key already present is left alone.
func (ix *index) insert(key string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if sep, right := ix.root.insert(key, nil, nil); right != nil {
		ix.root = &node{keys: []string{sep}, kids: []*node{ix.root, right}}
	}
}

// insert adds key below n. When n had to split it returns the new right
// sibling and the separator between the two. For a leaf with a sibling to its
// left under the same parent, left is that sibling and bound the parent's
// separator between them, which the leaf raises when it spills into left.
func (n *node) insert(key string, left *node, bound *string) (string, *node) {
	if n.kids != nil {
		i := n.child(key)
		left, bound = nil, nil
		if i > 0 {
			left, bound = n.kids[i-1], &n.keys[i-1]
		}
		sep, right := n.kids[i].insert(key, left, bound)
		if right == nil {
			return "", nil
		}
		n.keys = insertAt(n.keys, i, sep)
		n.kids = insertAt(n.kids, i+1, right)
		if len(n.kids) <= innerCap {
			return "", nil
		}
		mid := len(n.keys) / 2
		sep = n.keys[mid]
		right = &node{keys: slices.Clone(n.keys[mid+1:]), kids: slices.Clone(n.kids[mid+1:])}
		n.keys, n.kids = slices.Clone(n.keys[:mid]), slices.Clone(n.kids[:mid+1])
		return sep, right
	}
	i := sort.SearchStrings(n.keys, key)
	if i < len(n.keys) && n.keys[i] == key {
		return "", nil
	}
	if len(n.keys) < leafCap {
		n.keys = insertAt(n.keys, i, key)
		return "", nil
	}
	// Keys mostly arrive in ascending runs: appends, and position keys, which
	// are not zero-padded, so that each decade of log/g/<pos> sweeps forward
	// between the keys of the last one, ten at a time. A mid-point split alone
	// would leave a half-empty leaf behind every such run. So a full leaf
	// first spills its smallest key into the leaf on its left while that has
	// room — which fills what a run left behind as the run moves on — and
	// splits only when it has none: where the new key goes if that is in the
	// upper half, the keys below it staying put, or else in the middle.
	if left != nil && len(left.keys) < leafCap {
		spill := key
		if i > 0 {
			spill = n.keys[0]
			copy(n.keys, n.keys[1:i])
			n.keys[i-1] = key
		}
		left.keys = insertAt(left.keys, len(left.keys), spill)
		*bound = n.keys[0]
		return "", nil
	}
	cut := max(i, leafCap/2)
	right := &node{keys: append(make([]string, 0, leafCap), n.keys[cut:]...), next: n.next}
	clear(n.keys[cut:])
	n.keys, n.next = n.keys[:cut], right
	if i < cut {
		n.keys = insertAt(n.keys, i, key)
	} else {
		right.keys = insertAt(right.keys, 0, key)
	}
	return right.keys[0], right
}

// delete removes key; an absent key is a no-op.
func (ix *index) delete(key string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.root.delete(key, nil) {
		ix.root = &node{}
	}
	for len(ix.root.kids) == 1 {
		ix.root = ix.root.kids[0]
	}
}

// delete removes key from below n and reports whether that emptied n, for
// the parent to drop it. left is the node before n on n's level (nil at the
// left edge): the one whose last leaf points at n's first.
func (n *node) delete(key string, left *node) bool {
	if n.kids == nil {
		i := sort.SearchStrings(n.keys, key)
		if i == len(n.keys) || n.keys[i] != key {
			return false
		}
		n.keys = slices.Delete(n.keys, i, i+1)
		if len(n.keys) == 0 {
			if left != nil {
				left.next = n.next
			}
			return true
		}
		if cap(n.keys)-len(n.keys) > 2*nodeStep {
			n.keys = fit(n.keys)
		}
		return false
	}
	i := n.child(key)
	if i > 0 {
		left = n.kids[i-1]
	} else if left != nil {
		left = left.kids[len(left.kids)-1]
	}
	if !n.kids[i].delete(key, left) {
		return false
	}
	n.kids = slices.Delete(n.kids, i, i+1)
	if len(n.keys) > 0 { // the separator on the dropped kid's side
		j := max(i-1, 0)
		n.keys = slices.Delete(n.keys, j, j+1)
	}
	return len(n.kids) == 0
}

// page appends to dst, in order, the keys that carry prefix and sort strictly
// after `after`, stopping once dst holds max. Prefixed keys are contiguous in
// key order, so this is one seek and a walk of what it returns.
func (ix *index) page(dst []string, prefix, after string, max int) []string {
	from := prefix
	if after > from {
		from = after
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n, levels := ix.root, 1
	for ; n.kids != nil; levels++ {
		n = n.kids[n.child(from)]
	}
	// The seek ends in the leaf whose range holds from; no leaf below the
	// root is empty, so where this one has nothing left the next one starts
	// with the successor.
	i := sort.SearchStrings(n.keys, from)
	if i < len(n.keys) && n.keys[i] == after {
		i++
	}
	had := len(dst)
walk:
	for ; n != nil; n, i = n.next, 0 {
		for ; i < len(n.keys); i++ {
			if len(dst) == max || !strings.HasPrefix(n.keys[i], prefix) {
				break walk
			}
			dst = append(dst, n.keys[i])
		}
	}
	ix.visited.Add(int64(levels + len(dst) - had + 1))
	return dst
}
