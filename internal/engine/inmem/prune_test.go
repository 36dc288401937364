package inmem

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine/enginetest"
	"repro/internal/geom"
)

// pruneResolutions are the prune grid sizes the tests force: one cell (prunes
// nothing), the coarsest grid that prunes, an uneven one, and maxResolution.
// A handful of boxes derives one cell on its own.
var pruneResolutions = []int{1, 2, 5, maxResolution}

// keptSet returns the positions prune kept as a set.
func keptSet(kept []int32) map[int32]bool {
	set := make(map[int32]bool, len(kept))
	for _, pos := range kept {
		set[pos] = true
	}
	return set
}

// TestInMemPruneKeepsEveryPartner: at every resolution, every element that
// has a partner in the nested loop over the grown boxes — in any chunk — is
// kept, on the canonical distributions and the selective pairing,
// grown and not; and at the finest grid the prune drops something on the
// selective pairing, or it would prove nothing.
func TestInMemPruneKeepsEveryPartner(t *testing.T) {
	workloads := append(enginetest.Workloads(1200, 9800), enginetest.Workload{
		Name: "uniform-dense",
		A:    datagen.Uniform(datagen.Config{N: 1200, Seed: 9807}),
		B:    datagen.DenseCluster(datagen.Config{N: 1200, Seed: 9808}),
	})
	for _, w := range workloads {
		for _, distance := range []float64{0, 25} {
			ga := enginetest.Inflate(enginetest.Copy(w.A), distance/2)
			gb := enginetest.Inflate(enginetest.Copy(w.B), distance/2)
			hasA, hasB := make([]bool, len(ga)), make([]bool, len(gb))
			for i := range ga {
				for j := range gb {
					if ga[i].Box.Intersects(gb[j].Box) {
						hasA[i], hasB[j] = true, true
					}
				}
			}
			a := Input{Base: chunked(w.A, 7), Grow: distance / 2}
			b := Input{Base: chunked(w.B, 7), Grow: distance / 2}
			for _, r := range pruneResolutions {
				label := fmt.Sprintf("%s/d=%g/r=%d", w.Name, distance, r)
				keptA, keptB := prune(a, b, grownWorld(a, b), r)
				for _, side := range []struct {
					name string
					has  []bool
					kept map[int32]bool
				}{{"a", hasA, keptSet(keptA)}, {"b", hasB, keptSet(keptB)}} {
					for pos, has := range side.has {
						if has && !side.kept[int32(pos)] {
							t.Fatalf("%s: %s[%d] has a partner and was dropped", label, side.name, pos)
						}
					}
				}
				if w.Name == "uniform-dense" && r == maxResolution && len(keptA)+len(keptB) >= len(w.A)+len(w.B) {
					t.Fatalf("%s: kept all %d elements", label, len(keptA)+len(keptB))
				}
			}
		}
	}
}

// TestInMemPruneDropsTheFar: an element whose cells no element of the other
// side touches is dropped once the grid is fine enough to tell them apart,
// and nothing is dropped on one cell. A sits in one corner of the world, with
// one B box beside it; the other B boxes sit in the far corner, and one A box
// in the middle.
func TestInMemPruneDropsTheFar(t *testing.T) {
	cube := func(id uint64, lo, hi float64) geom.Element {
		return geom.Element{ID: id, Box: geom.Box{Lo: geom.Point{lo, lo, lo}, Hi: geom.Point{hi, hi, hi}}}
	}
	var a, b []geom.Element
	for i := 0; i < 20; i++ {
		a = append(a, cube(uint64(i), float64(i)/2, float64(i)/2+1))
		b = append(b, cube(uint64(100+i), 990+float64(i)/2, 991+float64(i)/2))
	}
	const middle, near = 20, 20 // positions of A's middle box and B's near one
	a = append(a, cube(999, 500.5, 501))
	b = append(b, cube(1000, 5, 6))
	in := func(e []geom.Element) Input { return Input{Base: chunked(e, 3)} }
	for _, r := range pruneResolutions {
		keptA, keptB := prune(in(a), in(b), grownWorld(in(a), in(b)), r)
		ka, kb := keptSet(keptA), keptSet(keptB)
		for pos := 0; pos < middle; pos++ {
			if !ka[int32(pos)] {
				t.Fatalf("r=%d: A[%d] shares a cell with B's near box and was dropped", r, pos)
			}
		}
		if !kb[near] {
			t.Fatalf("r=%d: B's near box was dropped", r)
		}
		// At 2 a side the middle box starts the far cell, and keeps the far
		// B boxes with it; from 5 a side it has a cell of its own.
		coarse := r <= 2
		if ka[middle] != coarse {
			t.Fatalf("r=%d: A's middle box kept = %v, want %v", r, ka[middle], coarse)
		}
		if far := len(kb) - 1; (far == len(b)-1) != coarse || (far != 0) != coarse {
			t.Fatalf("r=%d: kept %d of B's %d far boxes, want all = %v", r, far, len(b)-1, coarse)
		}
	}
}

// TestInMemPruneDegenerateWorlds: worlds that are a point, flat, or wider
// than float64 on some or every dimension — grown and not, each side in
// chunks of two — keep every pair at every resolution: a dimension whose cell
// scale is zero or infinite is one cell, and coordinates that grow past
// float64 clamp to the edge cells.
func TestInMemPruneDegenerateWorlds(t *testing.T) {
	box := func(id uint64, lo, hi geom.Point) geom.Element {
		return geom.Element{ID: id, Box: geom.Box{Lo: lo, Hi: hi}}
	}
	pt := func(id uint64, x, y, z float64) geom.Element {
		return box(id, geom.Point{x, y, z}, geom.Point{x, y, z})
	}
	const huge = math.MaxFloat64
	uniform := func(n int, seed int64, offset uint64) []geom.Element {
		e := enginetest.Copy(datagen.Uniform(datagen.Config{N: n, Seed: seed}))
		for i := range e {
			e[i].ID += offset
		}
		return enginetest.Inflate(e, 5)
	}
	flat := func(n int, seed int64, offset uint64) []geom.Element {
		e := uniform(n, seed, offset)
		for i := range e {
			e[i].Box.Lo[2], e[i].Box.Hi[2] = 7, 7
		}
		return e
	}
	cases := []struct {
		name string
		a, b []geom.Element
	}{
		{"point-world", []geom.Element{pt(1, 3, 3, 3), pt(2, 3, 3, 3), pt(3, 3, 3, 3)}, []geom.Element{pt(10, 3, 3, 3), pt(11, 3, 3, 3)}},
		{"flat-world", flat(300, 9901, 0), flat(300, 9902, 1000)},
		{"max-world", append(uniform(200, 9903, 0), box(900, geom.Point{-huge, -huge, -huge}, geom.Point{huge, huge, huge})),
			append(uniform(200, 9904, 1000), pt(901, huge, huge, huge), pt(902, -huge, 0, huge))},
		{"max-on-x", append(uniform(200, 9905, 0), box(900, geom.Point{-huge, 10, 10}, geom.Point{huge, 20, 20})),
			append(uniform(200, 9906, 1000), pt(901, -huge, 15, 15), pt(902, huge, 500, 500))},
		{"edge-of-float64", []geom.Element{pt(1, huge, huge, huge), pt(2, 0, 0, 0), pt(3, huge/2, huge/2, huge/2)},
			[]geom.Element{pt(10, huge, huge, huge), box(11, geom.Point{huge / 2, huge / 2, huge / 2}, geom.Point{huge, huge, huge}), pt(12, 1, 1, 1)}},
	}
	for _, tc := range cases {
		for _, grow := range []float64{0, 1, 1e308} {
			want := grownNaive(tc.a, tc.b, grow, grow)
			if len(want) == 0 {
				t.Fatalf("%s/grow=%g: no pairs to keep", tc.name, grow)
			}
			a := Input{Base: chunked(tc.a, 1), Grow: grow}
			b := Input{Base: chunked(tc.b, 1), Grow: grow}
			for _, r := range pruneResolutions {
				for _, stripes := range []int{1, 5} {
					got, _ := collect(partition(a, b, Config{Stripes: stripes}, r), JoinConfig{Parallelism: 1})
					diffMultisets(t, fmt.Sprintf("%s/grow=%g/r=%d/stripes=%d", tc.name, grow, r, stripes), want, got)
				}
			}
		}
	}
}

// TestInMemPruneResolution: the derived grid is ⌊∛n⌋ a side, one cell for
// the smallest inputs and maxResolution from 64³ elements on.
func TestInMemPruneResolution(t *testing.T) {
	for _, tc := range []struct{ n, r int }{
		{0, 1}, {1, 1}, {7, 1}, {8, 2}, {26, 2}, {27, 3}, {124, 4}, {125, 5},
		{200_000, 58}, {262_143, 63}, {262_144, 64}, {1 << 30, 64},
	} {
		if got := resolution(tc.n); got != tc.r {
			t.Fatalf("resolution(%d) = %d, want %d", tc.n, got, tc.r)
		}
	}
}
