// Package btree provides an order-configurable B+-tree keyed by uint64.
//
// TRANSFORMERS indexes the Hilbert value of the center point of every space
// node with a B+-tree (paper §V): the tree is used only to find a walk start
// descriptor near a pivot, so the operations that matter are bulk insertion
// and exact and nearest-key lookup. The paper picks a B+-tree over an R-tree
// precisely to avoid overlap and to make index construction cheap.
//
// Duplicate keys are allowed (two space nodes can share a Hilbert cell);
// all entries with equal keys are retained.
package btree

import (
	"fmt"
	"sort"
)

// DefaultOrder is the default maximum number of keys per node. 128 keeps
// nodes around the size of a small disk page while staying cache-friendly.
const DefaultOrder = 128

// Entry is one key/value pair stored in the tree.
type Entry struct {
	Key   uint64
	Value uint64
}

// Tree is a B+-tree. The zero value is not usable; call New.
type Tree struct {
	order int
	root  *node
	size  int
	first *node // leftmost leaf, head of the leaf chain
}

// node is either an internal node (children != nil) or a leaf (vals != nil).
// Internal nodes hold len(children)-1 separator keys; keys[i] is the
// smallest key in children[i+1]'s subtree.
type node struct {
	keys     []uint64
	children []*node  // internal only
	vals     []uint64 // leaf only
	next     *node    // leaf chain
}

func (n *node) leaf() bool { return n.children == nil }

// New returns an empty tree of the given order (DefaultOrder when <= 0).
// Order must be at least 3 to allow meaningful splits.
func New(order int) *Tree {
	if order <= 0 {
		order = DefaultOrder
	}
	if order < 3 {
		panic(fmt.Sprintf("btree: order %d < 3", order))
	}
	leaf := &node{}
	return &Tree{order: order, root: leaf, first: leaf}
}

// Len returns the number of entries in the tree.
func (t *Tree) Len() int { return t.size }

// Insert adds an entry. Duplicate keys are kept.
func (t *Tree) Insert(key, value uint64) {
	splitKey, right := t.insert(t.root, key, value)
	if right != nil {
		t.root = &node{
			keys:     []uint64{splitKey},
			children: []*node{t.root, right},
		}
	}
	t.size++
}

// insert descends to a leaf and inserts; on overflow it splits the node and
// returns the separator key and new right sibling for the parent to absorb.
func (t *Tree) insert(n *node, key, value uint64) (uint64, *node) {
	if n.leaf() {
		i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		n.vals = append(n.vals, 0)
		copy(n.vals[i+1:], n.vals[i:])
		n.vals[i] = value
		if len(n.keys) <= t.order {
			return 0, nil
		}
		return t.splitLeaf(n)
	}
	ci := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
	splitKey, right := t.insert(n.children[ci], key, value)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = splitKey
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = right
	if len(n.keys) <= t.order {
		return 0, nil
	}
	return t.splitInternal(n)
}

func (t *Tree) splitLeaf(n *node) (uint64, *node) {
	mid := len(n.keys) / 2
	right := &node{
		keys: append([]uint64(nil), n.keys[mid:]...),
		vals: append([]uint64(nil), n.vals[mid:]...),
		next: n.next,
	}
	n.keys = n.keys[:mid:mid]
	n.vals = n.vals[:mid:mid]
	n.next = right
	return right.keys[0], right
}

func (t *Tree) splitInternal(n *node) (uint64, *node) {
	mid := len(n.keys) / 2
	sep := n.keys[mid]
	right := &node{
		keys:     append([]uint64(nil), n.keys[mid+1:]...),
		children: append([]*node(nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid:mid]
	n.children = n.children[: mid+1 : mid+1]
	return sep, right
}

// Get returns the value of the first entry with the exact key.
func (t *Tree) Get(key uint64) (uint64, bool) {
	n, i := t.seek(key)
	if n == nil || i >= len(n.keys) || n.keys[i] != key {
		return 0, false
	}
	return n.vals[i], true
}

// seek returns the leaf and index of the first entry with key >= the
// argument; the leaf may be nil when the tree holds no such entry. The
// descent uses lower-bound semantics (first separator >= key): duplicates
// equal to a separator may remain left of it after a split, and the first
// such duplicate must be found.
func (t *Tree) seek(key uint64) (*node, int) {
	n := t.root
	for !n.leaf() {
		ci := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
		n = n.children[ci]
	}
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	for n != nil && i == len(n.keys) {
		n = n.next
		i = 0
	}
	if n == nil {
		return nil, 0
	}
	return n, i
}

// Ceil returns the first entry with Key >= key.
func (t *Tree) Ceil(key uint64) (Entry, bool) {
	n, i := t.seek(key)
	if n == nil {
		return Entry{}, false
	}
	return Entry{Key: n.keys[i], Value: n.vals[i]}, true
}

// Floor returns the last entry with Key <= key.
func (t *Tree) Floor(key uint64) (Entry, bool) {
	// Walk down choosing the rightmost child whose subtree can contain a
	// key <= the argument.
	var best Entry
	found := false
	n := t.root
	for !n.leaf() {
		ci := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] > key })
		n = n.children[ci]
	}
	for i := 0; i < len(n.keys) && n.keys[i] <= key; i++ {
		best = Entry{Key: n.keys[i], Value: n.vals[i]}
		found = true
	}
	if found {
		return best, true
	}
	// The leaf containing the seek position may start above key; the
	// predecessor then lives in an earlier leaf. Scan the chain (rare path,
	// only when the seek leaf's smallest key exceeds the argument).
	var prev *node
	for l := t.first; l != nil && l != n; l = l.next {
		if len(l.keys) > 0 && l.keys[0] <= key {
			prev = l
		} else if len(l.keys) > 0 {
			break
		}
	}
	if prev == nil {
		return Entry{}, false
	}
	for i := 0; i < len(prev.keys) && prev.keys[i] <= key; i++ {
		best = Entry{Key: prev.keys[i], Value: prev.vals[i]}
		found = true
	}
	return best, found
}

// Nearest returns the entry whose key is closest to key (ties prefer the
// smaller key). It is the lookup the adaptive walk uses to find a start
// descriptor near a pivot's Hilbert value.
func (t *Tree) Nearest(key uint64) (Entry, bool) {
	lo, okLo := t.Floor(key)
	hi, okHi := t.Ceil(key)
	switch {
	case !okLo && !okHi:
		return Entry{}, false
	case !okLo:
		return hi, true
	case !okHi:
		return lo, true
	}
	if key-lo.Key <= hi.Key-key {
		return lo, true
	}
	return hi, true
}
