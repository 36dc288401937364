package core

import (
	"math"
	"math/rand"
	"testing"
)

// keyedIndex is an index holding only what nearestNode reads: node i has
// Hilbert key keys[i].
func keyedIndex(keys []uint64) *Index {
	idx := &Index{nodes: make([]NodeDesc, len(keys))}
	idx.setNodeOrder(keys)
	return idx
}

// scanNearest is nearestNode by definition: among the nodes in (key, node ID)
// order, the last one at or below key, unless the first one at or above it is
// strictly closer.
func scanNearest(keys []uint64, key uint64) (int32, bool) {
	lo, hi := -1, -1
	for i, k := range keys {
		if k <= key && (lo < 0 || k >= keys[lo]) {
			lo = i // the largest key at or below, the highest node among equals
		}
		if k >= key && (hi < 0 || k < keys[hi]) {
			hi = i // the smallest key at or above, the lowest node among equals
		}
	}
	switch {
	case lo < 0 && hi < 0:
		return 0, false
	case lo < 0:
		return int32(hi), true
	case hi < 0 || key-keys[lo] <= keys[hi]-key:
		return int32(lo), true
	}
	return int32(hi), true
}

func TestNearestNodeFloorCeil(t *testing.T) {
	const top = math.MaxUint64
	cases := []struct {
		keys []uint64
		key  uint64
		want int32
	}{
		{[]uint64{10, 20, 30, 40}, 5, 0},
		{[]uint64{10, 20, 30, 40}, 10, 0},
		{[]uint64{10, 20, 30, 40}, 14, 0},
		{[]uint64{10, 20, 30, 40}, 15, 0}, // a tie prefers the smaller key
		{[]uint64{10, 20, 30, 40}, 16, 1},
		{[]uint64{10, 20, 30, 40}, 40, 3},
		{[]uint64{10, 20, 30, 40}, 45, 3},
		{[]uint64{40, 10, 30, 20}, 16, 3}, // node IDs, not positions in key order
		{[]uint64{0, top}, 0, 0},
		{[]uint64{0, top}, top, 1},
		{[]uint64{0, top}, top / 2, 0}, // top/2 - 0 < top - top/2: no overflow in either distance
		{[]uint64{0, top}, top/2 + 1, 1},
		{[]uint64{top}, 0, 0}, // one node answers every key
		{[]uint64{7}, top, 0},
	}
	for _, c := range cases {
		if got, ok := keyedIndex(c.keys).nearestNode(c.key); !ok || got != c.want {
			t.Errorf("nearestNode(%d) over %v = %d, %v, want node %d", c.key, c.keys, got, ok, c.want)
		}
	}
	if got, ok := keyedIndex(nil).nearestNode(3); ok {
		t.Errorf("nearestNode over no nodes = %d, true", got)
	}
}

// TestNearestNodeDuplicateKeys: nodes sharing a Hilbert cell are all kept, in
// node order; an exact hit answers the last of them (the floor), a key just
// above it too, and a key below the run its first (the ceiling).
func TestNearestNodeDuplicateKeys(t *testing.T) {
	const dups = 50
	keys := []uint64{41}
	for i := 0; i < dups; i++ {
		keys = append(keys, 45)
	}
	keys = append(keys, 49)
	idx := keyedIndex(keys)
	if len(idx.nodeOrder) != dups+2 || len(idx.orderKeys) != dups+2 {
		t.Fatalf("order holds %d nodes, %d keys, want %d", len(idx.nodeOrder), len(idx.orderKeys), dups+2)
	}
	for i, n := range idx.nodeOrder {
		if n != int32(i) || idx.orderKeys[i] != keys[i] {
			t.Fatalf("position %d holds node %d key %d, want node %d key %d", i, n, idx.orderKeys[i], i, keys[i])
		}
	}
	for _, c := range []struct {
		key  uint64
		want int32
	}{{41, 0}, {42, 0}, {43, 0}, {44, 1}, {45, dups}, {46, dups}, {47, dups}, {48, dups + 1}, {49, dups + 1}} {
		if got, _ := idx.nearestNode(c.key); got != c.want {
			t.Errorf("nearestNode(%d) = node %d, want %d", c.key, got, c.want)
		}
	}
}

// TestNearestNodeMatchesLinearScan: over seeded key multisets with long runs
// of equal keys and both ends of the key space, the order is the sorted
// multiset and every probe agrees with the scan.
func TestNearestNodeMatchesLinearScan(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	for round := 0; round < 300; round++ {
		n := r.Intn(300) + 1
		span := []uint64{3, 100, 1 << 20}[r.Intn(3)] // few distinct keys, some, nearly all
		keys := make([]uint64, n)
		for i := range keys {
			switch k := r.Uint64() % span; r.Intn(8) {
			case 0:
				keys[i] = math.MaxUint64 - k
			default:
				keys[i] = k
			}
		}
		idx := keyedIndex(keys)
		for i := 1; i < n; i++ {
			a, b := idx.nodeOrder[i-1], idx.nodeOrder[i]
			if keys[a] > keys[b] || (keys[a] == keys[b] && a >= b) || idx.orderKeys[i] != keys[b] {
				t.Fatalf("round %d: position %d out of (key, node) order", round, i)
			}
		}
		probes := []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1, math.MaxUint64 / 2}
		for i := 0; i < 40; i++ {
			probes = append(probes, r.Uint64()%(span+20), math.MaxUint64-r.Uint64()%(span+20), r.Uint64())
		}
		for _, key := range probes {
			want, _ := scanNearest(keys, key)
			if got, ok := idx.nearestNode(key); !ok || got != want {
				t.Fatalf("round %d: nearestNode(%d) = node %d (key %d), scan says node %d (key %d)",
					round, key, got, keys[got], want, keys[want])
			}
		}
	}
}
