package transformers

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/naive"
)

// diskEngines are the four disk-based algorithms of the paper's evaluation,
// run end to end on raw elements through engine.Run.
var diskEngines = []string{engine.Transformers, engine.PBSM, engine.RTree, engine.GIPSY}

func TestBuildAndJoinQuickstart(t *testing.T) {
	a := GenerateUniform(3000, 1)
	b := GenerateUniform(3000, 2)
	want := naive.Join(a, b)

	ia, err := BuildIndex(append([]Element(nil), a...), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := BuildIndex(append([]Element(nil), b...), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ia.Len() != 3000 {
		t.Fatalf("Len = %d", ia.Len())
	}
	br := ia.BuildReport()
	if br.Units == 0 || br.Nodes == 0 || br.IO.Writes == 0 {
		t.Fatalf("build report incomplete: %+v", br)
	}

	res, err := Join(ia, ib, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(res.Pairs, want) {
		t.Fatalf("facade join disagrees with naive: %d vs %d", len(res.Pairs), len(want))
	}
	if res.TotalTime < res.ModeledIOTime {
		t.Fatalf("total time %v < modeled IO %v", res.TotalTime, res.ModeledIOTime)
	}
}

// TestIndexOwnsItsElements: BuildIndex reorders the slice it is given and, over
// the default store, keeps it as the index's data pages. The index stays right
// for as long as the caller only reads the slice — a naive join over the
// reordered slice, between two index joins, is such a reader — and the slice
// still holds what was handed over.
func TestIndexOwnsItsElements(t *testing.T) {
	a := GenerateUniformCluster(4000, 5)
	b := GenerateDenseCluster(4000, 6)
	want := naive.Join(a, b)
	sum := func(elems []Element) (s uint64) {
		for _, e := range elems {
			s += e.ID
		}
		return s
	}
	sumA := sum(a)

	ia, err := BuildIndex(a, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := BuildIndex(b, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		res, err := Join(ia, ib, JoinOptions{Parallelism: 1 + round})
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(res.Pairs, want) {
			t.Fatalf("round %d: index join found %d pairs, naive %d", round, len(res.Pairs), len(want))
		}
		if got := naive.Join(a, b); !naive.Equal(got, want) || sum(a) != sumA {
			t.Fatalf("round %d: the slices handed to BuildIndex no longer hold the datasets", round)
		}
	}
	q := Box{Lo: Point{100, 100, 100}, Hi: Point{700, 700, 700}}
	got, _, err := ia.RangeQuery(q)
	if err != nil || len(got) != len(naiveRangeScan(a, q)) {
		t.Fatalf("range query after the joins: %d elements, want %d (err %v)", len(got), len(naiveRangeScan(a, q)), err)
	}
}

func TestJoinDiscardAndStream(t *testing.T) {
	a := GenerateUniform(500, 3)
	b := GenerateUniform(500, 4)
	ia, err := BuildIndex(a, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := BuildIndex(b, IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	streamed := 0
	res, err := Join(ia, ib, JoinOptions{DiscardPairs: true, OnPair: func(Element, Element) { streamed++ }})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pairs != nil {
		t.Fatal("DiscardPairs should not collect")
	}
	if uint64(streamed) != res.Stats.Results {
		t.Fatalf("streamed %d of %d results", streamed, res.Stats.Results)
	}
}

// TestCrossAlgorithmConsistency asserts all four disk-based algorithms
// report the naive pair count on clustered and on skewed generated data —
// the distributions whose non-uniformity the paper targets, and where
// partition-boundary bugs (duplicates, missed pairs) would show up first.
func TestCrossAlgorithmConsistency(t *testing.T) {
	workloads := []struct {
		name string
		a, b []Element
	}{
		{"clustered", GenerateDenseCluster(2000, 201), GenerateDenseCluster(2000, 202)},
		{"skewed", GenerateMassiveCluster(2000, 203), GenerateUniform(2000, 204)},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			want := uint64(len(naive.Join(w.a, w.b)))
			for _, alg := range diskEngines {
				res, err := engine.Run(context.Background(), alg,
					append([]Element(nil), w.a...), append([]Element(nil), w.b...), engine.Options{})
				if err != nil {
					t.Fatalf("%s: %v", alg, err)
				}
				if res.Stats.Refinements != want || uint64(len(res.Pairs)) != want {
					t.Errorf("%s on %s: %d results (%d pairs), naive reports %d",
						alg, w.name, res.Stats.Refinements, len(res.Pairs), want)
				}
			}
		})
	}
}

func TestRunReportsCosts(t *testing.T) {
	a := GenerateUniform(2000, 9)
	b := GenerateUniform(2000, 10)
	// Inflate the boxes so the workload produces results to count (2000
	// unit-sized boxes in a 1000^3 world intersect essentially never).
	for i := range a {
		a[i].Box = a[i].Box.Expand(15)
	}
	for i := range b {
		b[i].Box = b[i].Box.Expand(15)
	}
	for _, alg := range diskEngines {
		res, err := engine.Run(context.Background(), alg,
			append([]Element(nil), a...), append([]Element(nil), b...), engine.Options{DiscardPairs: true})
		if err != nil {
			t.Fatalf("%s: %v", alg, err)
		}
		st := res.Stats
		if st.BuildIO.Writes == 0 {
			t.Errorf("%s: no build writes reported", alg)
		}
		if st.JoinIO.Reads == 0 {
			t.Errorf("%s: no join reads reported", alg)
		}
		if st.Candidates == 0 {
			t.Errorf("%s: no comparisons reported", alg)
		}
		if st.JoinTotal < st.JoinIOTime {
			t.Errorf("%s: join total < IO time", alg)
		}
		if st.Refinements == 0 {
			t.Errorf("%s: no results on overlapping data", alg)
		}
	}
}

func TestRunUnknownAlgorithm(t *testing.T) {
	if _, err := engine.Run(context.Background(), "nope", nil, nil, engine.Options{}); err == nil {
		t.Fatal("unknown algorithm should fail")
	}
}

func TestGenerators(t *testing.T) {
	if n := len(GenerateAxons(1000, 1)); n != 1000 {
		t.Fatalf("axons: %d", n)
	}
	if n := len(GenerateDendrites(1000, 1)); n != 1000 {
		t.Fatalf("dendrites: %d", n)
	}
	if n := len(GenerateMassiveCluster(1000, 1)); n != 1000 {
		t.Fatalf("massive: %d", n)
	}
	if World().Volume() != 1e9 {
		t.Fatalf("world volume: %v", World().Volume())
	}
}

func TestJoinParallelism(t *testing.T) {
	a := GenerateUniform(4000, 5)
	b := GenerateMassiveCluster(4000, 6)
	want := naive.Join(a, b)
	ia, err := BuildIndex(append([]Element(nil), a...), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := BuildIndex(append([]Element(nil), b...), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := Join(ia, ib, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{-1, 2, 8} {
		streamed := 0
		res, err := Join(ia, ib, JoinOptions{
			Parallelism: workers,
			OnPair:      func(Element, Element) { streamed++ },
		})
		if err != nil {
			t.Fatal(err)
		}
		if !naive.Equal(append([]Pair(nil), res.Pairs...), want) {
			t.Fatalf("Parallelism=%d disagrees with naive", workers)
		}
		if res.Stats.Results != seq.Stats.Results {
			t.Fatalf("Parallelism=%d Results=%d, sequential=%d", workers, res.Stats.Results, seq.Stats.Results)
		}
		// OnPair delivery is serialized, so the plain counter is exact.
		if uint64(streamed) != res.Stats.Results {
			t.Fatalf("Parallelism=%d streamed %d of %d", workers, streamed, res.Stats.Results)
		}
	}
}
