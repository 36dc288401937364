package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/naive"
	"repro/internal/storage"
)

func build(t testing.TB, elems []geom.Element, fanout int) *Tree {
	t.Helper()
	st := storage.NewMemStore(0)
	tree, _, err := Bulkload(st, elems, Config{Fanout: fanout, World: datagen.DefaultWorld()})
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func TestBulkloadShape(t *testing.T) {
	elems := datagen.Uniform(datagen.Config{N: 5000, Seed: 1})
	st := storage.NewMemStore(0)
	tree, bs, err := Bulkload(st, elems, Config{Fanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 5000 {
		t.Fatalf("Len = %d", tree.Len())
	}
	// With fanout 16 and 5000 elements: ~313 leaves, ~20 internals, 2-3 upper levels.
	if tree.Height() < 3 {
		t.Fatalf("height = %d, want >= 3", tree.Height())
	}
	if bs.Pages != st.NumPages() {
		t.Fatalf("pages written %d != allocated %d", bs.Pages, st.NumPages())
	}
	if bs.IO.Writes == 0 {
		t.Fatal("bulkload should write pages")
	}
}

func TestBulkloadEmpty(t *testing.T) {
	tree := build(t, nil, 16)
	if tree.Height() != 1 {
		t.Fatalf("empty tree height = %d", tree.Height())
	}
	var hits int
	if _, err := tree.Search(datagen.DefaultWorld(), func(geom.Element) { hits++ }); err != nil {
		t.Fatal(err)
	}
	if hits != 0 {
		t.Fatalf("empty tree returned %d results", hits)
	}
}

func TestSearchMatchesScan(t *testing.T) {
	elems := datagen.DenseCluster(datagen.Config{N: 3000, Seed: 2, MaxSide: 5})
	tree := build(t, append([]geom.Element(nil), elems...), 32)
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		c := geom.Point{r.Float64() * 1000, r.Float64() * 1000, r.Float64() * 1000}
		q := geom.BoxAround(c, geom.Point{30, 30, 30})
		got := make(map[uint64]bool)
		if _, err := tree.Search(q, func(e geom.Element) { got[e.ID] = true }); err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64]bool)
		for _, e := range elems {
			if e.Box.Intersects(q) {
				want[e.ID] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: search found %d, scan %d", trial, len(got), len(want))
		}
		for id := range want {
			if !got[id] {
				t.Fatalf("trial %d: missing element %d", trial, id)
			}
		}
	}
}

func TestSearchVisitsFewNodes(t *testing.T) {
	elems := datagen.Uniform(datagen.Config{N: 20000, Seed: 4, MaxSide: 2})
	tree := build(t, elems, 0)
	q := geom.BoxAround(geom.Point{500, 500, 500}, geom.Point{10, 10, 10})
	stats, err := tree.Search(q, func(geom.Element) {})
	if err != nil {
		t.Fatal(err)
	}
	totalPages := tree.Store().NumPages()
	if int(stats.NodesVisited) > totalPages/4 {
		t.Fatalf("point-ish query visited %d of %d pages", stats.NodesVisited, totalPages)
	}
}

func collectSync(t testing.TB, ta, tb *Tree) ([]geom.Pair, JoinStats) {
	t.Helper()
	var pairs []geom.Pair
	stats, err := SyncJoin(ta, tb, JoinConfig{}, func(a, b geom.Element) {
		pairs = append(pairs, geom.Pair{A: a.ID, B: b.ID})
	})
	if err != nil {
		t.Fatal(err)
	}
	return pairs, stats
}

func TestSyncJoinMatchesNaive(t *testing.T) {
	a := datagen.Uniform(datagen.Config{N: 1500, Seed: 5, MaxSide: 15})
	b := datagen.Uniform(datagen.Config{N: 1200, Seed: 6, MaxSide: 15})
	want := naive.Join(a, b)
	ta := build(t, append([]geom.Element(nil), a...), 32)
	tb := build(t, append([]geom.Element(nil), b...), 32)
	got, stats := collectSync(t, ta, tb)
	if !naive.Equal(got, want) {
		t.Fatalf("sync join disagrees with naive: %d vs %d pairs", len(got), len(want))
	}
	if stats.Results != uint64(len(want)) {
		t.Fatalf("Results = %d, want %d", stats.Results, len(want))
	}
	if stats.Comparisons == 0 || stats.MetaComparisons == 0 {
		t.Fatalf("stats not counted: %+v", stats)
	}
}

func TestSyncJoinSkewedSizes(t *testing.T) {
	// Very different tree heights exercise the height-fixing branches.
	a := datagen.Uniform(datagen.Config{N: 20, Seed: 7, MaxSide: 50})
	b := datagen.MassiveCluster(datagen.Config{N: 4000, Seed: 8, MaxSide: 10})
	want := naive.Join(a, b)
	ta := build(t, append([]geom.Element(nil), a...), 4)
	tb := build(t, append([]geom.Element(nil), b...), 4)
	if ta.Height() == tb.Height() {
		t.Fatalf("test requires different heights, got %d and %d", ta.Height(), tb.Height())
	}
	got, _ := collectSync(t, ta, tb)
	if !naive.Equal(got, want) {
		t.Fatalf("skewed sync join disagrees: %d vs %d pairs", len(got), len(want))
	}
}

func TestSyncJoinEmptySides(t *testing.T) {
	a := datagen.Uniform(datagen.Config{N: 100, Seed: 9})
	ta := build(t, a, 8)
	te := build(t, nil, 8)
	got, _ := collectSync(t, ta, te)
	if len(got) != 0 {
		t.Fatalf("join with empty tree: %d pairs", len(got))
	}
	got, _ = collectSync(t, te, ta)
	if len(got) != 0 {
		t.Fatalf("join with empty tree (swapped): %d pairs", len(got))
	}
}

func TestSyncJoinSharedStore(t *testing.T) {
	st := storage.NewMemStore(0)
	a := datagen.Uniform(datagen.Config{N: 500, Seed: 10, MaxSide: 20})
	b := datagen.Uniform(datagen.Config{N: 500, Seed: 11, MaxSide: 20})
	want := naive.Join(a, b)
	ta, _, err := Bulkload(st, a, Config{Fanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	tb, _, err := Bulkload(st, b, Config{Fanout: 16})
	if err != nil {
		t.Fatal(err)
	}
	var pairs []geom.Pair
	if _, err := SyncJoin(ta, tb, JoinConfig{}, func(x, y geom.Element) {
		pairs = append(pairs, geom.Pair{A: x.ID, B: y.ID})
	}); err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(pairs, want) {
		t.Fatalf("shared-store join disagrees: %d vs %d", len(pairs), len(want))
	}
}

func TestSyncJoinNoDuplicates(t *testing.T) {
	a := datagen.UniformCluster(datagen.Config{N: 2000, Seed: 12, MaxSide: 10})
	b := datagen.DenseCluster(datagen.Config{N: 2000, Seed: 13, MaxSide: 10})
	ta := build(t, append([]geom.Element(nil), a...), 16)
	tb := build(t, append([]geom.Element(nil), b...), 16)
	got, _ := collectSync(t, ta, tb)
	if d := naive.Dedup(append([]geom.Pair(nil), got...)); len(d) != len(got) {
		t.Fatalf("sync join emitted %d duplicate pairs", len(got)-len(d))
	}
}

func TestJoinIOCounted(t *testing.T) {
	a := datagen.Uniform(datagen.Config{N: 2000, Seed: 16, MaxSide: 10})
	b := datagen.Uniform(datagen.Config{N: 2000, Seed: 17, MaxSide: 10})
	ta := build(t, a, 16)
	tb := build(t, b, 16)
	_, stats := collectSync(t, ta, tb)
	if stats.IO.Reads == 0 {
		t.Fatal("join should read pages")
	}
	if stats.IO.Writes != 0 {
		t.Fatalf("join should not write, wrote %d pages", stats.IO.Writes)
	}
}

func TestPropSyncJoinMatchesNaive(t *testing.T) {
	f := func(seed int64, nA, nB uint8, sideRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		side := float64(sideRaw%80) + 1
		a := datagen.Uniform(datagen.Config{N: int(nA)%150 + 1, Seed: r.Int63(), MaxSide: side})
		b := datagen.Uniform(datagen.Config{N: int(nB)%150 + 1, Seed: r.Int63(), MaxSide: side})
		want := naive.Join(a, b)
		ta := build(t, append([]geom.Element(nil), a...), 4)
		tb := build(t, append([]geom.Element(nil), b...), 4)
		got, _ := collectSync(t, ta, tb)
		return naive.Equal(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
