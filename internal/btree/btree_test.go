package btree

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// scan walks the leaf chain: every entry in ascending key order.
func scan(t *Tree) []Entry {
	var out []Entry
	for n := t.first; n != nil; n = n.next {
		for i, k := range n.keys {
			out = append(out, Entry{Key: k, Value: n.vals[i]})
		}
	}
	return out
}

func TestEmptyTree(t *testing.T) {
	tr := New(4)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Get(5); ok {
		t.Fatal("Get on empty tree should miss")
	}
	if _, ok := tr.Ceil(0); ok {
		t.Fatal("Ceil on empty tree should miss")
	}
	if _, ok := tr.Floor(^uint64(0)); ok {
		t.Fatal("Floor on empty tree should miss")
	}
	if _, ok := tr.Nearest(7); ok {
		t.Fatal("Nearest on empty tree should miss")
	}
}

func TestNewPanicsOnTinyOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for order 2")
		}
	}()
	New(2)
}

func TestInsertGetSmallOrder(t *testing.T) {
	tr := New(3) // force many splits
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i*7%n), uint64(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		if _, ok := tr.Get(uint64(i)); !ok {
			t.Fatalf("key %d missing", i)
		}
	}
	if _, ok := tr.Get(n + 1); ok {
		t.Fatal("absent key found")
	}
}

func TestCeilFloorNearest(t *testing.T) {
	tr := New(4)
	for _, k := range []uint64{10, 20, 30, 40} {
		tr.Insert(k, k)
	}
	cases := []struct {
		key         uint64
		ceil, floor uint64
		ceilOK      bool
		floorOK     bool
		nearest     uint64
	}{
		{5, 10, 0, true, false, 10},
		{10, 10, 10, true, true, 10},
		{14, 20, 10, true, true, 10},
		{15, 20, 10, true, true, 10}, // tie prefers smaller
		{16, 20, 10, true, true, 20},
		{40, 40, 40, true, true, 40},
		{45, 0, 40, false, true, 40},
	}
	for _, c := range cases {
		e, ok := tr.Ceil(c.key)
		if ok != c.ceilOK || (ok && e.Key != c.ceil) {
			t.Errorf("Ceil(%d) = %v,%v", c.key, e, ok)
		}
		e, ok = tr.Floor(c.key)
		if ok != c.floorOK || (ok && e.Key != c.floor) {
			t.Errorf("Floor(%d) = %v,%v", c.key, e, ok)
		}
		e, ok = tr.Nearest(c.key)
		if !ok || e.Key != c.nearest {
			t.Errorf("Nearest(%d) = %v,%v, want %d", c.key, e, ok, c.nearest)
		}
	}
}

func TestDuplicateKeys(t *testing.T) {
	tr := New(3)
	const dups = 50
	for i := 0; i < dups; i++ {
		tr.Insert(42, uint64(i))
	}
	tr.Insert(41, 100)
	tr.Insert(43, 200)
	seen := make(map[uint64]bool)
	for _, e := range scan(tr) {
		if e.Key == 42 {
			seen[e.Value] = true
		}
	}
	if len(seen) != dups {
		t.Fatalf("expected %d duplicates, scanned %d", dups, len(seen))
	}
	if _, ok := tr.Get(41); !ok {
		t.Fatal("neighbor key 41 lost")
	}
	if _, ok := tr.Get(43); !ok {
		t.Fatal("neighbor key 43 lost")
	}
	if tr.Len() != dups+2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), dups+2)
	}
}

func TestPropBehavesLikeSortedMultiset(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%300 + 1
		order := []int{3, 4, 8, 128}[r.Intn(4)]
		tr := New(order)
		var ref []uint64
		for i := 0; i < n; i++ {
			k := uint64(r.Intn(100))
			tr.Insert(k, k)
			ref = append(ref, k)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
		// Full scan must equal sorted reference.
		all := scan(tr)
		if len(all) != len(ref) {
			return false
		}
		for i := range ref {
			if all[i].Key != ref[i] {
				return false
			}
		}
		// Ceil/Floor agree with the reference for random probes.
		for probe := 0; probe < 20; probe++ {
			k := uint64(r.Intn(120))
			i := sort.Search(len(ref), func(i int) bool { return ref[i] >= k })
			wantCeilOK := i < len(ref)
			e, ok := tr.Ceil(k)
			if ok != wantCeilOK || (ok && e.Key != ref[i]) {
				return false
			}
			wantFloorOK := i > 0 || (i < len(ref) && ref[i] == k)
			fe, fok := tr.Floor(k)
			var wantFloor uint64
			if i < len(ref) && ref[i] == k {
				wantFloor = k
			} else if i > 0 {
				wantFloor = ref[i-1]
			} else {
				wantFloorOK = false
			}
			if fok != wantFloorOK || (fok && fe.Key != wantFloor) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeSequentialInsert(t *testing.T) {
	tr := New(0) // default order
	const n = 50000
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i), uint64(i))
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	e, ok := tr.Nearest(n * 2)
	if !ok || e.Key != n-1 {
		t.Fatalf("Nearest beyond max = %v, %v", e, ok)
	}
	if all := scan(tr); len(all) != n || all[0].Key != 0 || all[n-1].Key != n-1 {
		t.Fatalf("leaf chain holds %d entries", len(all))
	}
}

func BenchmarkInsertRandom(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(r.Uint64(), uint64(i))
	}
}

func BenchmarkNearest(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	tr := New(0)
	for i := 0; i < 100000; i++ {
		tr.Insert(r.Uint64(), uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Nearest(r.Uint64())
	}
}
