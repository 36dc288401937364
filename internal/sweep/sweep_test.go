package sweep

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/naive"
)

func collect(as, bs []geom.Element) []geom.Pair {
	var pairs []geom.Pair
	Join(as, bs, func(a, b geom.Element) {
		pairs = append(pairs, geom.Pair{A: a.ID, B: b.ID})
	})
	return pairs
}

func TestJoinMatchesNaive(t *testing.T) {
	a := datagen.Uniform(datagen.Config{N: 600, Seed: 1, MaxSide: 25})
	b := datagen.Uniform(datagen.Config{N: 500, Seed: 2, MaxSide: 25})
	got := collect(a, b)
	want := naive.Join(a, b)
	if !naive.Equal(got, want) {
		t.Fatalf("sweep join disagrees with naive: %d vs %d pairs", len(got), len(want))
	}
}

func TestJoinMatchesNaiveSkewed(t *testing.T) {
	a := datagen.MassiveCluster(datagen.Config{N: 800, Seed: 3, MaxSide: 8})
	b := datagen.Uniform(datagen.Config{N: 50, Seed: 4, MaxSide: 8})
	got := collect(a, b)
	want := naive.Join(a, b)
	if !naive.Equal(got, want) {
		t.Fatalf("sweep join disagrees with naive on skew: %d vs %d", len(got), len(want))
	}
}

func TestJoinEmits0nEmpty(t *testing.T) {
	a := datagen.Uniform(datagen.Config{N: 10, Seed: 5})
	if got := collect(nil, a); len(got) != 0 {
		t.Fatalf("empty A side: %d pairs", len(got))
	}
	if got := collect(a, nil); len(got) != 0 {
		t.Fatalf("empty B side: %d pairs", len(got))
	}
}

func TestJoinNoDuplicatesOnTies(t *testing.T) {
	// Identical x-starts exercise the tie-break path of the merge loop.
	b := geom.Box{Lo: geom.Point{0, 0, 0}, Hi: geom.Point{5, 5, 5}}
	var as, bs []geom.Element
	for i := 0; i < 10; i++ {
		as = append(as, geom.Element{ID: uint64(i), Box: b})
		bs = append(bs, geom.Element{ID: uint64(100 + i), Box: b})
	}
	got := collect(as, bs)
	if len(got) != 100 {
		t.Fatalf("tie case: %d pairs, want 100", len(got))
	}
	if d := naive.Dedup(append([]geom.Pair(nil), got...)); len(d) != 100 {
		t.Fatal("tie case produced duplicates")
	}
}

func TestComparisonsBeatNestedLoopWhenSparse(t *testing.T) {
	// Spread elements along x so the sweep window stays small.
	var as, bs []geom.Element
	for i := 0; i < 1000; i++ {
		x := float64(i) * 10
		as = append(as, geom.Element{ID: uint64(i), Box: geom.NewBox(geom.Point{x, 0, 0}, geom.Point{x + 1, 1, 1})})
		bs = append(bs, geom.Element{ID: uint64(i + 10000), Box: geom.NewBox(geom.Point{x + 0.5, 0, 0}, geom.Point{x + 1.5, 1, 1})})
	}
	comparisons := Join(as, bs, func(geom.Element, geom.Element) {})
	if comparisons > 10000 {
		t.Fatalf("sweep should be near-linear here, did %d comparisons", comparisons)
	}
}

func TestPropJoinMatchesNaive(t *testing.T) {
	f := func(seed int64, nA, nB uint8, sideRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		side := float64(sideRaw%120) + 1
		a := datagen.Uniform(datagen.Config{N: int(nA)%80 + 1, Seed: r.Int63(), MaxSide: side})
		b := datagen.Uniform(datagen.Config{N: int(nB)%80 + 1, Seed: r.Int63(), MaxSide: side})
		return naive.Equal(collect(a, b), naive.Join(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkJoinUniform50k(b *testing.B) {
	as := datagen.Uniform(datagen.Config{N: 50000, Seed: 1, MaxSide: 2})
	bs := datagen.Uniform(datagen.Config{N: 50000, Seed: 2, MaxSide: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(as, bs, func(geom.Element, geom.Element) {})
	}
}
