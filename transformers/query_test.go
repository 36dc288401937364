package transformers

import (
	"sync"
	"testing"
)

func box3(lo, hi Point) Box { return Box{Lo: lo, Hi: hi} }

func naiveRangeScan(elems []Element, q Box) []Element {
	var out []Element
	for _, e := range elems {
		if e.Box.Intersects(q) {
			out = append(out, e)
		}
	}
	return out
}

func TestRangeQueryFacade(t *testing.T) {
	dists := []struct {
		name  string
		elems []Element
	}{
		{"uniform", GenerateUniform(4000, 41)},
		{"clustered", GenerateDenseCluster(4000, 42)},
		{"skewed", GenerateMassiveCluster(4000, 43)},
	}
	queries := []Box{
		box3(Point{100, 100, 100}, Point{200, 220, 180}),
		box3(Point{480, 480, 480}, Point{520, 520, 520}),
		World(),
		box3(Point{-100, -100, -100}, Point{-50, -50, -50}),
	}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			idx, err := BuildIndex(append([]Element(nil), d.elems...), IndexOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range queries {
				got, rs, err := idx.RangeQuery(q)
				if err != nil {
					t.Fatal(err)
				}
				want := naiveRangeScan(d.elems, q)
				if len(got) != len(want) || rs.Results != len(want) {
					t.Fatalf("query %d: got %d (stats %d), want %d", qi, len(got), rs.Results, len(want))
				}
			}
		})
	}
}

func TestProbeFacade(t *testing.T) {
	elems := GenerateUniform(3000, 44)
	idx, err := BuildIndex(append([]Element(nil), elems...), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := elems[123].Box.Center()
	pt := Box{Lo: p, Hi: p}
	got, _, err := idx.RangeQuery(pt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range got {
		if !e.Box.Contains(pt) {
			t.Fatalf("probe returned non-containing element %d", e.ID)
		}
		if e.ID == elems[123].ID {
			found = true
		}
	}
	if !found {
		t.Fatal("probe missed the element whose center was probed")
	}
}

// TestConcurrentJoinsSharedIndex is the serving-layer contract: many joins
// and range queries over the same built indexes at once, with no option set,
// verified under -race by CI.
func TestConcurrentJoinsSharedIndex(t *testing.T) {
	a := GenerateUniform(2000, 45)
	b := GenerateDenseCluster(2000, 46)
	ia, err := BuildIndex(append([]Element(nil), a...), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := BuildIndex(append([]Element(nil), b...), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Join(ia, ib, JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			res, err := Join(ia, ib, JoinOptions{Parallelism: 1 + w%2})
			if err != nil {
				t.Error(err)
				return
			}
			if res.Stats.Results != ref.Stats.Results {
				t.Errorf("worker %d: %d results, want %d", w, res.Stats.Results, ref.Stats.Results)
			}
		}(w)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := ia.RangeQuery(box3(Point{200, 200, 200}, Point{400, 400, 400})); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}
