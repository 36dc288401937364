package grid

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/naive"
)

func collect(build, probe []geom.Element, cfg Config) []geom.Pair {
	var pairs []geom.Pair
	Join(build, probe, cfg, func(b, p geom.Element) {
		pairs = append(pairs, geom.Pair{A: b.ID, B: p.ID})
	})
	return pairs
}

func TestJoinMatchesNaiveUniform(t *testing.T) {
	build := datagen.Uniform(datagen.Config{N: 800, Seed: 1, MaxSide: 20})
	probe := datagen.Uniform(datagen.Config{N: 700, Seed: 2, MaxSide: 20})
	got := collect(build, probe, Config{})
	want := naive.Join(build, probe)
	if !naive.Equal(got, want) {
		t.Fatalf("grid join disagrees with naive: %d vs %d pairs", len(got), len(want))
	}
}

func TestJoinMatchesNaiveClustered(t *testing.T) {
	build := datagen.MassiveCluster(datagen.Config{N: 1000, Seed: 3, MaxSide: 5})
	probe := datagen.DenseCluster(datagen.Config{N: 900, Seed: 4, MaxSide: 5})
	got := collect(build, probe, Config{})
	want := naive.Join(build, probe)
	if !naive.Equal(got, want) {
		t.Fatalf("grid join disagrees with naive: %d vs %d pairs", len(got), len(want))
	}
}

func TestJoinNoDuplicatesWithLargeElements(t *testing.T) {
	// Large elements span many cells; the reference-point method must still
	// report each pair exactly once.
	build := datagen.Uniform(datagen.Config{N: 200, Seed: 5, MaxSide: 300})
	probe := datagen.Uniform(datagen.Config{N: 200, Seed: 6, MaxSide: 300})
	got := collect(build, probe, Config{CellSize: 50}) // force multi-cell spans
	deduped := naive.Dedup(append([]geom.Pair(nil), got...))
	if len(deduped) != len(got) {
		t.Fatalf("grid join emitted %d duplicates", len(got)-len(deduped))
	}
	want := naive.Join(build, probe)
	if !naive.Equal(got, want) {
		t.Fatalf("grid join disagrees with naive: %d vs %d pairs", len(got), len(want))
	}
}

func TestJoinEmptySides(t *testing.T) {
	probe := datagen.Uniform(datagen.Config{N: 10, Seed: 7})
	if got := collect(nil, probe, Config{}); len(got) != 0 {
		t.Fatalf("empty build side produced %d pairs", len(got))
	}
	if got := collect(probe, nil, Config{}); len(got) != 0 {
		t.Fatalf("empty probe side produced %d pairs", len(got))
	}
}

func TestJoinDisjointSets(t *testing.T) {
	worldA := geom.Box{Lo: geom.Point{0, 0, 0}, Hi: geom.Point{100, 100, 100}}
	worldB := geom.Box{Lo: geom.Point{500, 500, 500}, Hi: geom.Point{600, 600, 600}}
	a := datagen.Uniform(datagen.Config{N: 100, Seed: 8, World: worldA})
	b := datagen.Uniform(datagen.Config{N: 100, Seed: 9, World: worldB})
	if got := collect(a, b, Config{}); len(got) != 0 {
		t.Fatalf("disjoint sets produced %d pairs", len(got))
	}
}

func TestProbeCountsComparisons(t *testing.T) {
	build := datagen.Uniform(datagen.Config{N: 500, Seed: 10, MaxSide: 10})
	probe := datagen.Uniform(datagen.Config{N: 500, Seed: 11, MaxSide: 10})
	comparisons := Join(build, probe, Config{}, func(geom.Element, geom.Element) {})
	if comparisons == 0 {
		t.Fatal("expected nonzero comparisons")
	}
	// The grid must beat the nested loop by a wide margin on uniform data.
	if comparisons >= uint64(len(build)*len(probe))/4 {
		t.Fatalf("grid too close to nested loop: %d comparisons", comparisons)
	}
}

func TestIdenticalBoxes(t *testing.T) {
	// Many elements with the same box stress the dedup logic.
	b := geom.Box{Lo: geom.Point{10, 10, 10}, Hi: geom.Point{20, 20, 20}}
	var build, probe []geom.Element
	for i := 0; i < 20; i++ {
		build = append(build, geom.Element{ID: uint64(i), Box: b})
		probe = append(probe, geom.Element{ID: uint64(100 + i), Box: b})
	}
	got := collect(build, probe, Config{})
	if len(got) != 400 {
		t.Fatalf("identical boxes: got %d pairs, want 400", len(got))
	}
	if d := naive.Dedup(append([]geom.Pair(nil), got...)); len(d) != 400 {
		t.Fatalf("identical boxes produced duplicates")
	}
}

func TestTouchingBoxesCount(t *testing.T) {
	build := []geom.Element{{ID: 1, Box: geom.Box{Lo: geom.Point{0, 0, 0}, Hi: geom.Point{1, 1, 1}}}}
	probe := []geom.Element{{ID: 2, Box: geom.Box{Lo: geom.Point{1, 0, 0}, Hi: geom.Point{2, 1, 1}}}}
	got := collect(build, probe, Config{})
	if len(got) != 1 {
		t.Fatalf("touching boxes should join, got %d pairs", len(got))
	}
}

func TestPropJoinMatchesNaive(t *testing.T) {
	f := func(seed int64, nA, nB uint8, sideRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		side := float64(sideRaw%100) + 1
		a := datagen.Uniform(datagen.Config{N: int(nA)%100 + 1, Seed: r.Int63(), MaxSide: side})
		b := datagen.Uniform(datagen.Config{N: int(nB)%100 + 1, Seed: r.Int63(), MaxSide: side})
		return naive.Equal(collect(a, b, Config{}), naive.Join(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestGridReuseMatchesFreshBuild: one Grid joined over a sequence of build
// sets of every shape — large, tiny, empty, large again — emits the pairs, in
// the order, and counts the comparisons a fresh grid per join does, and once
// it has seen its largest build set it allocates nothing.
func TestGridReuseMatchesFreshBuild(t *testing.T) {
	probe := datagen.Uniform(datagen.Config{N: 600, Seed: 21, MaxSide: 25})
	var builds [][]geom.Element
	for i, n := range []int{900, 7, 0, 300, 900, 1} {
		builds = append(builds, datagen.Uniform(datagen.Config{N: n, Seed: int64(30 + i), MaxSide: 25}))
	}
	var reused Grid
	for i, build := range builds {
		var got, want []geom.Pair
		gotComps := reused.Join(build, probe, Config{}, func(b, p geom.Element) {
			got = append(got, geom.Pair{A: b.ID, B: p.ID})
		})
		wantComps := Join(build, probe, Config{}, func(b, p geom.Element) {
			want = append(want, geom.Pair{A: b.ID, B: p.ID})
		})
		if gotComps != wantComps || len(got) != len(want) {
			t.Fatalf("build %d: reused grid made %d comparisons for %d pairs, a fresh one %d for %d", i, gotComps, len(got), wantComps, len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("build %d: pair %d is %+v on the reused grid, %+v on a fresh one", i, k, got[k], want[k])
			}
		}
	}
	sink := func(geom.Element, geom.Element) {}
	if avg := testing.AllocsPerRun(5, func() {
		for _, build := range builds {
			reused.Join(build, probe, Config{}, sink)
		}
	}); avg != 0 {
		t.Fatalf("a warm grid allocates %.1f times per round of joins, want 0", avg)
	}
}

func BenchmarkJoinUniform100k(b *testing.B) {
	build := datagen.Uniform(datagen.Config{N: 100000, Seed: 1, MaxSide: 2})
	probe := datagen.Uniform(datagen.Config{N: 100000, Seed: 2, MaxSide: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(build, probe, Config{}, func(geom.Element, geom.Element) {})
	}
}
