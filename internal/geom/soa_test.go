package geom

import (
	"math/rand"
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
// longer or a shorter batch, hold exactly the elements given, in order — and a
// reload that fits allocates nothing.
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
			got := Element{ID: s.ID[i]}
			for d := 0; d < Dims; d++ {
				got.Box.Lo[d], got.Box.Hi[d] = s.Lo[d][i], s.Hi[d][i]
			}
			if got != e {
				t.Fatalf("element %d of %d round-trips to %+v, want %+v", i, n, got, e)
			}
		}
	}
	elems := randomElements(r, 400)
	if avg := testing.AllocsPerRun(10, func() { s.Load(elems) }); avg != 0 {
		t.Fatalf("reloading a buffer that fits allocates %.1f times, want 0", avg)
	}
}

// TestSoAFilterMatchesIntersects: both filter forms agree exactly with
// Box.Intersects — same touch-inclusive predicate, same order.
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

		out = s.FilterGather(query, idx, out[:0])
		want = want[:0]
		for _, i := range idx {
			if query.Intersects(elems[i].Box) {
				want = append(want, i)
			}
		}
		if len(out) != len(want) {
			t.Fatalf("query %d gather: %d survivors, want %d", q, len(out), len(want))
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("query %d gather: survivor %d = %d, want %d", q, i, out[i], want[i])
			}
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
		out = s.FilterGather(q, idx, out[:0])
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
