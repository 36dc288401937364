package core

import (
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
)

// naiveRange is the trivially correct reference selection.
func naiveRange(elems []geom.Element, query geom.Box) []geom.Element {
	var out []geom.Element
	for _, e := range elems {
		if e.Box.Intersects(query) {
			out = append(out, e)
		}
	}
	return out
}

func sortByID(elems []geom.Element) {
	sort.Slice(elems, func(i, j int) bool { return elems[i].ID < elems[j].ID })
}

func sameElements(t *testing.T, got, want []geom.Element, ctx string) {
	t.Helper()
	sortByID(got)
	sortByID(want)
	if len(got) != len(want) {
		t.Fatalf("%s: got %d elements, want %d", ctx, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: element %d: got %+v want %+v", ctx, i, got[i], want[i])
		}
	}
}

// queryBoxes returns a deterministic mix of query shapes: small probes, page-
// sized windows, elongated slabs, the whole world, and boxes fully outside it.
func queryBoxes(r *rand.Rand, world geom.Box, n int) []geom.Box {
	out := []geom.Box{
		world,
		world.Expand(10),
		{Lo: geom.Point{world.Hi[0] + 50, world.Hi[1] + 50, world.Hi[2] + 50},
			Hi: geom.Point{world.Hi[0] + 60, world.Hi[1] + 60, world.Hi[2] + 60}},
	}
	for i := 0; i < n; i++ {
		var c geom.Point
		for d := 0; d < geom.Dims; d++ {
			c[d] = world.Lo[d] + r.Float64()*world.Side(d)
		}
		var half geom.Point
		switch i % 3 {
		case 0: // small window
			for d := range half {
				half[d] = 1 + r.Float64()*5
			}
		case 1: // medium cube
			for d := range half {
				half[d] = 10 + r.Float64()*40
			}
		case 2: // elongated slab
			half = geom.Point{world.Side(0) / 2, 2 + r.Float64()*4, 2 + r.Float64()*4}
		}
		out = append(out, geom.BoxAround(c, half))
	}
	return out
}

// TestRangeQueryMatchesNaiveScan cross-validates RangeQuery against a naive
// scan on uniform, clustered and skewed data — the acceptance gate of the
// range/probe primitive.
func TestRangeQueryMatchesNaiveScan(t *testing.T) {
	dists := []struct {
		name  string
		elems []geom.Element
	}{
		{"uniform", datagen.Uniform(datagen.Config{N: 6000, Seed: 11})},
		{"clustered", datagen.DenseCluster(datagen.Config{N: 6000, Seed: 12})},
		{"skewed", datagen.MassiveCluster(datagen.Config{N: 6000, Seed: 13})},
	}
	for _, d := range dists {
		t.Run(d.name, func(t *testing.T) {
			idx := buildIndex(t, d.elems, IndexConfig{})
			r := rand.New(rand.NewSource(99))
			for qi, q := range queryBoxes(r, datagen.DefaultWorld(), 24) {
				got, rs, err := idx.RangeQuery(q, nil)
				if err != nil {
					t.Fatalf("query %d: %v", qi, err)
				}
				want := naiveRange(d.elems, q)
				sameElements(t, got, want, d.name)
				if rs.Results != len(want) {
					t.Fatalf("query %d: stats.Results = %d, want %d", qi, rs.Results, len(want))
				}
				if len(want) > 0 && rs.UnitsRead == 0 {
					t.Fatalf("query %d: results without page reads", qi)
				}
			}
		})
	}
}

// TestRangeQueryReadsFewPages checks selectivity: a small window on uniform
// data must not read a large fraction of the dataset's pages.
func TestRangeQueryReadsFewPages(t *testing.T) {
	elems := datagen.Uniform(datagen.Config{N: 20000, Seed: 7})
	idx := buildIndex(t, elems, IndexConfig{})
	q := geom.BoxAround(geom.Point{500, 500, 500}, geom.Point{15, 15, 15})
	_, rs, err := idx.RangeQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rs.UnitsRead > idx.Units()/4 {
		t.Fatalf("small window read %d of %d units", rs.UnitsRead, idx.Units())
	}
	if rs.IO.Reads == 0 {
		t.Fatal("no I/O recorded")
	}
}

// TestProbeQuery checks point probes — range queries over a degenerate box —
// against a naive point scan.
func TestProbeQuery(t *testing.T) {
	elems := datagen.DenseCluster(datagen.Config{N: 4000, Seed: 21})
	idx := buildIndex(t, elems, IndexConfig{})
	// Probe element centers (guaranteed hits) and a far-away miss.
	for i := 0; i < 50; i++ {
		p := elems[i*37%len(elems)].Box.Center()
		pt := geom.Box{Lo: p, Hi: p}
		got, _, err := idx.RangeQuery(pt, nil)
		if err != nil {
			t.Fatal(err)
		}
		var want []geom.Element
		for _, e := range elems {
			if e.Box.Contains(pt) {
				want = append(want, e)
			}
		}
		sameElements(t, got, want, "probe")
		if len(got) == 0 {
			t.Fatal("probe at element center found nothing")
		}
	}
	far := geom.Point{-500, -500, -500}
	got, _, err := idx.RangeQuery(geom.Box{Lo: far, Hi: far}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("probe outside world found %d elements", len(got))
	}
}

// TestRangeQueryConcurrent runs many range queries concurrently with a join
// on the same shared index: the serving workload. Run under -race this is the
// isolation gate for the private walker and reader state.
func TestRangeQueryConcurrent(t *testing.T) {
	elems := datagen.UniformCluster(datagen.Config{N: 5000, Seed: 31})
	other := datagen.Uniform(datagen.Config{N: 3000, Seed: 32})
	idx := buildIndex(t, elems, IndexConfig{})
	ib := buildIndex(t, other, IndexConfig{})

	r := rand.New(rand.NewSource(5))
	queries := queryBoxes(r, datagen.DefaultWorld(), 12)
	wants := make([][]geom.Element, len(queries))
	for i, q := range queries {
		wants[i] = naiveRange(elems, q)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 16)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i, q := range queries {
				got, _, err := idx.RangeQuery(q, nil)
				if err != nil {
					errc <- err
					return
				}
				if len(got) != len(wants[i]) {
					t.Errorf("worker %d query %d: got %d want %d", w, i, len(got), len(wants[i]))
					return
				}
			}
		}(w)
	}
	// A concurrent join on the same index, reading through private views.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := Join(idx, ib, JoinConfig{}, func(a, b geom.Element) {}); err != nil {
			errc <- err
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// TestRangeQueryEmptyIndex checks the zero-element edge case.
func TestRangeQueryEmptyIndex(t *testing.T) {
	idx := buildIndex(t, nil, IndexConfig{World: datagen.DefaultWorld()})
	got, rs, err := idx.RangeQuery(datagen.DefaultWorld(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || rs.Results != 0 {
		t.Fatalf("empty index returned %d elements", len(got))
	}
}

// TestRangeQueryDstReuse: Results must count only this query's matches even
// when appending into a reused buffer.
func TestRangeQueryDstReuse(t *testing.T) {
	elems := datagen.Uniform(datagen.Config{N: 3000, Seed: 55})
	idx := buildIndex(t, elems, IndexConfig{})
	q := geom.BoxAround(geom.Point{500, 500, 500}, geom.Point{80, 80, 80})
	first, rs1, err := idx.RangeQuery(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	both, rs2, err := idx.RangeQuery(q, first)
	if err != nil {
		t.Fatal(err)
	}
	if rs2.Results != rs1.Results {
		t.Fatalf("reused-buffer Results = %d, want %d", rs2.Results, rs1.Results)
	}
	if len(both) != 2*len(first) {
		t.Fatalf("append contract broken: %d vs 2x%d", len(both), len(first))
	}
}
