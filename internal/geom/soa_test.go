package geom

import (
	"math/rand"
	"slices"
	"testing"
)

func randomElements(r *rand.Rand, n int) []Element {
	out := make([]Element, n)
	for i := range out {
		c := Point{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100}
		h := Point{r.Float64() * 5, r.Float64() * 5, r.Float64() * 5}
		if i%7 == 0 { // zero-extent boxes exercise the touch-inclusive edges
			h = Point{}
		}
		out[i] = Element{ID: uint64(i + 1), Box: BoxAround(c, h)}
	}
	return out
}

// TestSoARoundTrip: MakeSoA, and Load over a buffer that already held a
// longer or a shorter batch, locate exactly the elements given, in order,
// inside float32 bounds that contain each box — and a reload that fits
// allocates nothing.
func TestSoARoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	s := MakeSoA(randomElements(r, 200))
	for _, n := range []int{200, 30, 0, 500, 200} {
		elems := randomElements(r, n)
		s.Load(elems)
		if s.Len() != len(elems) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(elems))
		}
		for i, e := range elems {
			if got := s.At(int32(i)); got != e {
				t.Fatalf("element %d of %d round-trips to %+v, want %+v", i, n, got, e)
			}
			for d := 0; d < Dims; d++ {
				if !(float64(s.Lo[d][i]) <= e.Box.Lo[d] && e.Box.Hi[d] <= float64(s.Hi[d][i])) {
					t.Fatalf("element %d of %d: float32 bounds [%g, %g] miss [%g, %g] in dimension %d", i, n, s.Lo[d][i], s.Hi[d][i], e.Box.Lo[d], e.Box.Hi[d], d)
				}
			}
		}
	}
	elems := randomElements(r, 400)
	if avg := testing.AllocsPerRun(10, func() { s.Load(elems) }); avg != 0 {
		t.Fatalf("reloading a buffer that fits allocates %.1f times, want 0", avg)
	}
}

// TestSoALocatesAcrossRuns: LoadGrown over runs of every length, empty ones
// included, locates each element in its run, grown; the MBB and extent sum it
// returns are MBBOf's and the element-order sum over the grown copies, bit for
// bit; and Release drops the runs.
func TestSoALocatesAcrossRuns(t *testing.T) {
	r := rand.New(rand.NewSource(75))
	elems := randomElements(r, 700)
	var runs [][]Element
	for i, n := 0, 1; i < len(elems); i, n = i+n, n*3%61 {
		runs = append(runs, elems[i:min(i+n, len(elems))], nil)
	}
	for _, grow := range []float64{0, 0.25, 3} {
		var s SoA
		mbb, sides := s.LoadGrown(runs, grow)
		grown := make([]Element, len(elems))
		var want float64
		for i, e := range elems {
			e.Box.Grow(grow)
			grown[i] = e
			for d := 0; d < Dims; d++ {
				want += e.Box.Hi[d] - e.Box.Lo[d]
			}
		}
		if mbb != MBBOf(grown) || sides != want {
			t.Fatalf("grow %g: LoadGrown returned %v and %v, want %v and %v", grow, mbb, sides, MBBOf(grown), want)
		}
		for i, e := range grown {
			if got := s.At(int32(i)); got != e {
				t.Fatalf("grow %g: element %d is %+v, want %+v", grow, i, got, e)
			}
		}
		s.Release()
		if s.runs != nil {
			t.Fatal("Release kept the runs")
		}
	}
}

// TestSoAFilterMatchesIntersects: FilterIntersect agrees exactly with
// Box.Intersects — same touch-inclusive predicate, same order — and so do the
// gather form's candidates once each is decided on its element.
func TestSoAFilterMatchesIntersects(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	elems := randomElements(r, 500)
	s := MakeSoA(elems)
	idx := make([]int32, 0, len(elems))
	for i := 0; i < len(elems); i += 2 {
		idx = append(idx, int32(i))
	}
	var out []int32
	for q := 0; q < 50; q++ {
		query := BoxAround(
			Point{r.Float64() * 100, r.Float64() * 100, r.Float64() * 100},
			Point{r.Float64() * 10, r.Float64() * 10, r.Float64() * 10})

		out = s.FilterIntersect(query, 0, s.Len(), out[:0])
		var want []int32
		for i, e := range elems {
			if query.Intersects(e.Box) {
				want = append(want, int32(i))
			}
		}
		if len(out) != len(want) {
			t.Fatalf("query %d: filter found %d, want %d", q, len(out), len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("query %d: survivor %d = %d, want %d", q, i, out[i], want[i])
			}
		}

		// Candidates is a superset, in idx order, that the exact test on
		// each run element cuts to the same survivors.
		out = s.Candidates(query, idx, out[:0])
		want = want[:0]
		for _, i := range idx {
			if query.Intersects(elems[i].Box) {
				want = append(want, i)
			}
		}
		var kept []int32
		for k, i := range out {
			if k > 0 && i <= out[k-1] {
				t.Fatalf("query %d gather: candidates out of order: %v", q, out)
			}
			if s.At(i).Box.Intersects(query) {
				kept = append(kept, i)
			}
		}
		if !slices.Equal(kept, want) {
			t.Fatalf("query %d gather: exact survivors %v, want %v", q, kept, want)
		}
	}
}

// TestSoAFilterAllocFree pins the scratch-reuse contract: with capacity in
// the out slice, neither filter form allocates.
func TestSoAFilterAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	elems := randomElements(r, 1000)
	s := MakeSoA(elems)
	q := BoxAround(Point{50, 50, 50}, Point{30, 30, 30})
	idx := make([]int32, s.Len())
	for i := range idx {
		idx[i] = int32(i)
	}
	out := make([]int32, 0, s.Len())
	if avg := testing.AllocsPerRun(20, func() {
		out = s.FilterIntersect(q, 0, s.Len(), out[:0])
		out = s.Candidates(q, idx, out[:0])
	}); avg != 0 {
		t.Fatalf("filters allocate %.1f times per run, want 0", avg)
	}
	if len(out) == 0 {
		t.Fatal("alloc probe filtered nothing")
	}
}

// BenchmarkSoAFilter compares the batched SoA filter against the equivalent
// per-element Box.Intersects scan over []Element — the speedup the layout
// buys candidate loops.
func BenchmarkSoAFilter(b *testing.B) {
	r := rand.New(rand.NewSource(74))
	elems := randomElements(r, 4096)
	s := MakeSoA(elems)
	q := BoxAround(Point{50, 50, 50}, Point{25, 25, 25})
	b.Run("soa", func(b *testing.B) {
		out := make([]int32, 0, len(elems))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = s.FilterIntersect(q, 0, s.Len(), out[:0])
		}
		if len(out) == 0 {
			b.Fatal("no survivors")
		}
	})
	b.Run("aos", func(b *testing.B) {
		out := make([]int32, 0, len(elems))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			out = out[:0]
			for j := range elems {
				if q.Intersects(elems[j].Box) {
					out = append(out, int32(j))
				}
			}
		}
		if len(out) == 0 {
			b.Fatal("no survivors")
		}
	})
}
