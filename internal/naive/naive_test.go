package naive

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/grid"
)

// gridJoinPairs runs the in-memory grid join and returns its pair set in
// (build, probe) orientation, matching Join(as, bs).
func gridJoinPairs(as, bs []geom.Element) []geom.Pair {
	var out []geom.Pair
	grid.Join(as, bs, func(a, b geom.Element) {
		out = append(out, geom.Pair{A: a.ID, B: b.ID})
	})
	return out
}

// TestNaiveMatchesGridJoin cross-validates the two reference kernels: the
// O(n·m) nested loop and the grid hash join must agree exactly on every
// distribution.
func TestNaiveMatchesGridJoin(t *testing.T) {
	cases := []struct {
		name string
		a, b []geom.Element
	}{
		{
			name: "uniform",
			a:    datagen.Uniform(datagen.Config{N: 1200, Seed: 1, MaxSide: 15}),
			b:    datagen.Uniform(datagen.Config{N: 1000, Seed: 2, MaxSide: 15}),
		},
		{
			name: "clustered",
			a:    datagen.DenseCluster(datagen.Config{N: 1500, Seed: 3, MaxSide: 8}),
			b:    datagen.UniformCluster(datagen.Config{N: 1500, Seed: 4, MaxSide: 8}),
		},
		{
			name: "skewed",
			a:    datagen.MassiveCluster(datagen.Config{N: 2000, Seed: 5, MaxSide: 6}),
			b:    datagen.Uniform(datagen.Config{N: 300, Seed: 6, MaxSide: 6}),
		},
		{
			name: "large-boxes",
			a:    datagen.Uniform(datagen.Config{N: 200, Seed: 7, MaxSide: 300}),
			b:    datagen.Uniform(datagen.Config{N: 250, Seed: 8, MaxSide: 200}),
		},
		{
			name: "empty-side",
			a:    nil,
			b:    datagen.Uniform(datagen.Config{N: 100, Seed: 9}),
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			want := Join(c.a, c.b)
			got := gridJoinPairs(c.a, c.b)
			if !Equal(got, want) {
				t.Fatalf("grid join disagrees with naive: %d vs %d pairs", len(got), len(want))
			}
		})
	}
}

// TestNaiveMatchesGridSelfJoin checks the self-join kernel (used for index
// connectivity) against the nested loop over unordered pairs.
func TestNaiveMatchesGridSelfJoin(t *testing.T) {
	elems := datagen.UniformCluster(datagen.Config{N: 900, Seed: 10, MaxSide: 12})
	var want []geom.Pair
	for i := range elems {
		for j := i + 1; j < len(elems); j++ {
			if elems[i].Box.Intersects(elems[j].Box) {
				want = append(want, geom.Pair{A: uint64(i), B: uint64(j)})
			}
		}
	}
	boxes := make([]geom.Box, len(elems))
	for i, e := range elems {
		boxes[i] = e.Box
	}
	var got []geom.Pair
	grid.SelfPairs(boxes, func(i, j int) {
		got = append(got, geom.Pair{A: uint64(i), B: uint64(j)})
	})
	if !Equal(got, want) {
		t.Fatalf("grid self-join disagrees with naive: %d vs %d pairs", len(got), len(want))
	}
}

func TestSortAndEqual(t *testing.T) {
	a := []geom.Pair{{A: 2, B: 1}, {A: 1, B: 2}, {A: 1, B: 1}}
	b := []geom.Pair{{A: 1, B: 1}, {A: 2, B: 1}, {A: 1, B: 2}}
	if !Equal(a, b) {
		t.Fatal("permuted pair sets should be equal")
	}
	if a[0] != (geom.Pair{A: 1, B: 1}) || a[1] != (geom.Pair{A: 1, B: 2}) || a[2] != (geom.Pair{A: 2, B: 1}) {
		t.Fatalf("Sort order wrong: %v", a)
	}
	if Equal(a, a[:2]) {
		t.Fatal("different lengths should not be equal")
	}
	if Equal(a, []geom.Pair{{A: 1, B: 1}, {A: 1, B: 3}, {A: 2, B: 1}}) {
		t.Fatal("different contents should not be equal")
	}
}

func TestDedup(t *testing.T) {
	if got := Dedup(nil); len(got) != 0 {
		t.Fatal("dedup of empty should be empty")
	}
	in := []geom.Pair{{A: 1, B: 1}, {A: 2, B: 2}, {A: 1, B: 1}, {A: 2, B: 2}, {A: 3, B: 3}}
	got := Dedup(in)
	want := []geom.Pair{{A: 1, B: 1}, {A: 2, B: 2}, {A: 3, B: 3}}
	if !Equal(got, want) {
		t.Fatalf("dedup = %v", got)
	}
}
