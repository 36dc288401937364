package grid

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/naive"
)

func collect(build, probe []geom.Element) []geom.Pair {
	var pairs []geom.Pair
	Join(build, probe, func(b, p geom.Element) {
		pairs = append(pairs, geom.Pair{A: b.ID, B: p.ID})
	})
	return pairs
}

func TestJoinMatchesNaiveUniform(t *testing.T) {
	build := datagen.Uniform(datagen.Config{N: 800, Seed: 1, MaxSide: 20})
	probe := datagen.Uniform(datagen.Config{N: 700, Seed: 2, MaxSide: 20})
	got := collect(build, probe)
	want := naive.Join(build, probe)
	if !naive.Equal(got, want) {
		t.Fatalf("grid join disagrees with naive: %d vs %d pairs", len(got), len(want))
	}
}

func TestJoinMatchesNaiveClustered(t *testing.T) {
	build := datagen.MassiveCluster(datagen.Config{N: 1000, Seed: 3, MaxSide: 5})
	probe := datagen.DenseCluster(datagen.Config{N: 900, Seed: 4, MaxSide: 5})
	got := collect(build, probe)
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
	if g := Build(build); len(g.items) <= len(build) {
		t.Fatalf("%d cell assignments for %d elements: no element spans several cells", len(g.items), len(build))
	}
	got := collect(build, probe)
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
	if got := collect(nil, probe); len(got) != 0 {
		t.Fatalf("empty build side produced %d pairs", len(got))
	}
	if got := collect(probe, nil); len(got) != 0 {
		t.Fatalf("empty probe side produced %d pairs", len(got))
	}
}

func TestJoinDisjointSets(t *testing.T) {
	worldA := geom.Box{Lo: geom.Point{0, 0, 0}, Hi: geom.Point{100, 100, 100}}
	worldB := geom.Box{Lo: geom.Point{500, 500, 500}, Hi: geom.Point{600, 600, 600}}
	a := datagen.Uniform(datagen.Config{N: 100, Seed: 8, World: worldA})
	b := datagen.Uniform(datagen.Config{N: 100, Seed: 9, World: worldB})
	if got := collect(a, b); len(got) != 0 {
		t.Fatalf("disjoint sets produced %d pairs", len(got))
	}
}

func TestProbeCountsComparisons(t *testing.T) {
	build := datagen.Uniform(datagen.Config{N: 500, Seed: 10, MaxSide: 10})
	probe := datagen.Uniform(datagen.Config{N: 500, Seed: 11, MaxSide: 10})
	comparisons := Join(build, probe, func(geom.Element, geom.Element) {})
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
	got := collect(build, probe)
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
	got := collect(build, probe)
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
		return naive.Equal(collect(a, b), naive.Join(a, b))
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
	batch := func(elems []geom.Element) Batch { return Batch{Runs: [][]geom.Element{elems}} }
	for i, build := range builds {
		var got, want []geom.Pair
		gotComps := reused.Join(batch(build), batch(probe), func(b, p geom.Element) {
			got = append(got, geom.Pair{A: b.ID, B: p.ID})
		})
		wantComps := Join(build, probe, func(b, p geom.Element) {
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
	batches := make([]Batch, len(builds))
	for i, build := range builds {
		batches[i] = batch(build)
	}
	probes := batch(probe)
	if avg := testing.AllocsPerRun(5, func() {
		for _, build := range batches {
			reused.Join(build, probes, sink)
		}
	}); avg != 0 {
		t.Fatalf("a warm grid allocates %.1f times per round of joins, want 0", avg)
	}
}

// TestBatchIsTheGrownConcatenation: a join over batches — runs of every
// length, empty ones included, grown by a radius on the way in — emits the
// same pairs, in the same order and with the same boxes, and counts the same
// comparisons as the join over one concatenated copy with every box grown;
// a radius of 0 takes the boxes as stored, -0 bounds included.
func TestBatchIsTheGrownConcatenation(t *testing.T) {
	build := datagen.Uniform(datagen.Config{N: 700, Seed: 41, MaxSide: 20})
	probe := datagen.DenseCluster(datagen.Config{N: 500, Seed: 42, MaxSide: 20})
	// A -0 bound, which Expand(0) would flip, on an element that joins.
	build[3].Box.Lo[0], build[3].Box.Hi[0] = -1, math.Copysign(0, -1)
	probe = append(probe, geom.Element{ID: 9000, Box: build[3].Box.Expand(1)})
	split := func(elems []geom.Element) [][]geom.Element {
		var runs [][]geom.Element
		for i, n := 0, 1; i < len(elems); i, n = i+n, n*2%97 {
			runs = append(runs, elems[i:min(i+n, len(elems))], nil)
		}
		return runs
	}
	type hit struct{ b, p geom.Element }
	bits := func(h hit) (out [14]uint64) {
		for i, e := range []geom.Element{h.b, h.p} {
			out[7*i] = e.ID
			for d := 0; d < geom.Dims; d++ {
				out[7*i+1+d], out[7*i+4+d] = math.Float64bits(e.Box.Lo[d]), math.Float64bits(e.Box.Hi[d])
			}
		}
		return out
	}
	same := func(x, y hit) bool { return bits(x) == bits(y) }
	for _, r := range []float64{0, 0.5, 7} {
		grow := func(elems []geom.Element) []geom.Element {
			out := slices.Clone(elems)
			for i := range out {
				if r > 0 {
					out[i].Box = out[i].Box.Expand(r)
				}
			}
			return out
		}
		var got, want []hit
		gotComps := new(Grid).Join(Batch{Runs: split(build), Grow: r}, Batch{Runs: split(probe), Grow: r}, func(b, p geom.Element) {
			got = append(got, hit{b, p})
		})
		wantComps := Join(grow(build), grow(probe), func(b, p geom.Element) {
			want = append(want, hit{b, p})
		})
		if gotComps != wantComps || !slices.EqualFunc(got, want, same) {
			t.Fatalf("r=%v: batches made %d comparisons for %d pairs, the grown copy %d for %d, or the pairs differ", r, gotComps, len(got), wantComps, len(want))
		}
		// Both joins load through the same code: hold the emitted boxes to
		// the copies Expand grew, bit for bit, as well.
		grownB, grownP := map[uint64]geom.Element{}, map[uint64]geom.Element{}
		for _, e := range grow(build) {
			grownB[e.ID] = e
		}
		for _, e := range grow(probe) {
			grownP[e.ID] = e
		}
		for _, h := range got {
			if !same(h, hit{grownB[h.b.ID], grownP[h.p.ID]}) {
				t.Fatalf("r=%v: pair (%d, %d) emitted boxes %v and %v, grown copies are %v and %v", r, h.b.ID, h.p.ID, h.b.Box, h.p.Box, grownB[h.b.ID].Box, grownP[h.p.ID].Box)
			}
		}
		if r == 0 && len(want) == 0 {
			t.Fatal("fixture joins to nothing")
		}
	}
}

func BenchmarkJoinUniform100k(b *testing.B) {
	build := datagen.Uniform(datagen.Config{N: 100000, Seed: 1, MaxSide: 2})
	probe := datagen.Uniform(datagen.Config{N: 100000, Seed: 2, MaxSide: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(build, probe, func(geom.Element, geom.Element) {})
	}
}

// boxesFrom reads up to 24 boxes of six float64s each from raw, skipping any
// with a NaN or infinite coordinate; element i has ID i.
func boxesFrom(raw []byte) []geom.Element {
	var out []geom.Element
	for ; len(raw) >= 48 && len(out) < 24; raw = raw[48:] {
		var c [6]float64
		ok := true
		for i := range c {
			c[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			ok = ok && !math.IsNaN(c[i]) && !math.IsInf(c[i], 0)
		}
		if ok {
			out = append(out, geom.Element{
				ID:  uint64(len(out)),
				Box: geom.NewBox(geom.Point{c[0], c[1], c[2]}, geom.Point{c[3], c[4], c[5]}),
			})
		}
	}
	return out
}

// rawOf is boxesFrom's inverse, for the seed corpus.
func rawOf(boxes ...geom.Box) []byte {
	var raw []byte
	for _, b := range boxes {
		for _, p := range []geom.Point{b.Lo, b.Hi} {
			for _, v := range p {
				raw = binary.LittleEndian.AppendUint64(raw, math.Float64bits(v))
			}
		}
	}
	return raw
}

// runsOf cuts elems into runs of one to four elements, with empty runs
// between some of them, as the bits of cut choose.
func runsOf(elems []geom.Element, cut uint8) [][]geom.Element {
	var runs [][]geom.Element
	for i := 0; i < len(elems); cut = cut>>3 | cut<<5 {
		if cut&1 != 0 {
			runs = append(runs, nil)
		}
		n := min(1+int(cut>>1&3), len(elems)-i)
		runs = append(runs, elems[i:i+n])
		i += n
	}
	return runs
}

// FuzzGridJoin: on boxes made of fuzzed bits — zero extent, shared faces,
// coordinates one float64 ulp apart that one float32 holds both of, huge and
// denormal magnitudes, -0 — cut into runs and grown or not, the grid join
// emits every pair of the nested loop over grown copies exactly once, as those
// copies, and nothing else: the float32 filter loses no pair and the exact
// test lets none through. Its Comparisons are the lengths of the cell lists
// its probes visited: for every (build, probe) pair, the number of cells both
// overlap.
func FuzzGridJoin(f *testing.F) {
	cube := func(lo, hi float64) geom.Box {
		return geom.Box{Lo: geom.Point{lo, lo, lo}, Hi: geom.Point{hi, hi, hi}}
	}
	next := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	// Overlapping, nested and disjoint boxes of ordinary size.
	f.Add(rawOf(cube(0, 10), cube(5, 6), cube(20, 30), cube(-3, 0), cube(40, 41), cube(2, 3)), rawOf(cube(9, 21), cube(5.5, 5.5), cube(100, 101), cube(0, 50)), 2.5, uint8(0x1b))
	// Touching on faces and corners, across the cells of a grid of cubes.
	f.Add(rawOf(cube(0, 1), cube(1, 2), cube(2, 3), cube(3, 4), cube(4, 5), cube(5, 6)), rawOf(cube(1, 1), cube(2, 4), cube(6, 7), cube(-1, 0)), 0.0, uint8(0x39))
	// Apart in float32 rounded to nearest, touching in float64: the upper
	// bound 1+2^-25 rounds to 1, below the probe's 1+2^-26.
	f.Add(rawOf(cube(0, 1+0x1p-25), cube(16777215, 16777216)), rawOf(cube(1+0x1p-26, 2), cube(16777216, 16777219)), 0.0, uint8(0x05))
	// Apart in float64, overlapping once rounded; and a gap closed by growing.
	f.Add(rawOf(cube(16777215, 16777216), cube(0, 1)), rawOf(cube(16777217, 16777219), cube(next(1), 2)), 0.5, uint8(0xff))
	// Zeroes of both signs, denormals of both widths, magnitudes beyond
	// float32 and at the end of float64.
	neg0 := math.Copysign(0, -1)
	f.Add(
		rawOf(cube(neg0, 0), cube(5e-324, 1e-310), cube(-1e-40, 1e-40), cube(-math.MaxFloat64, math.MaxFloat64), cube(1e39, 1e300)),
		rawOf(cube(0, 0), cube(neg0, 5e-324), cube(1e-45, 1), cube(3e38, 1e39), cube(-1e300, -1e39), cube(math.MaxFloat32, next(math.MaxFloat32))),
		1e-320, uint8(0x6c))
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, grow float64, cut uint8) {
		a, b := boxesFrom(rawA), boxesFrom(rawB)
		if math.IsNaN(grow) || math.IsInf(grow, 0) {
			grow = 1
		}
		for _, r := range []float64{0, math.Abs(grow)} {
			grown := func(elems []geom.Element) []geom.Element {
				out := slices.Clone(elems)
				for i := range out {
					out[i].Box.Grow(r)
				}
				return out
			}
			ga, gb := grown(a), grown(b)
			got := map[geom.Pair]int{}
			var g Grid
			comps := g.Join(Batch{Runs: runsOf(a, cut), Grow: r}, Batch{Runs: runsOf(b, cut>>3), Grow: r}, func(x, y geom.Element) {
				if x != ga[x.ID] || y != gb[y.ID] {
					t.Fatalf("r=%g: emitted %+v and %+v, grown they are %+v and %+v", r, x, y, ga[x.ID], gb[y.ID])
				}
				got[geom.Pair{A: x.ID, B: y.ID}]++
			})
			want := 0
			for _, x := range ga {
				for _, y := range gb {
					p := geom.Pair{A: x.ID, B: y.ID}
					if x.Box.Intersects(y.Box) {
						want++
						if got[p] != 1 {
							t.Fatalf("r=%g: pair %v (%v, %v) emitted %d times", r, p, x.Box, y.Box, got[p])
						}
					} else if got[p] != 0 {
						t.Fatalf("r=%g: disjoint pair %v (%v, %v) emitted", r, p, x.Box, y.Box)
					}
				}
			}
			if len(got) != want {
				t.Fatalf("r=%g: %d distinct pairs emitted, %d intersect", r, len(got), want)
			}
			g.Reset(Batch{Runs: [][]geom.Element{a}, Grow: r})
			var shared uint64
			for _, y := range gb {
				q := g.cells(&y.Box)
				for _, x := range ga {
					e := g.cells(&x.Box)
					shared += uint64(overlap(e.x0, e.x1, q.x0, q.x1) * overlap(e.y0, e.y1, q.y0, q.y1) * overlap(e.z0, e.z1, q.z0, q.z1))
				}
			}
			if comps != shared {
				t.Fatalf("r=%g: %d comparisons, but the probes share %d cells with the build elements", r, comps, shared)
			}
		}
	})
}

// overlap is the number of integers in both [a0, a1] and [b0, b1].
func overlap(a0, a1, b0, b1 int) int { return max(0, min(a1, b1)-max(a0, b0)+1) }

// TestGridMemory: after Reset over N elements in k runs, the grid's own
// arrays, counted by capacity, hold at most 28 bytes an element beside its
// cell lists — no copy of a box or an ID — and after Join returns the grid
// holds no reference to the runs it read, so a grid kept for the next join
// (a pooled TRANSFORMERS side keeps one) pins no page it was handed.
func TestGridMemory(t *testing.T) {
	const n, k = 6000, 60
	elems := datagen.Uniform(datagen.Config{N: n, Seed: 51, MaxSide: 20})
	// newRuns clones elems into k runs and counts in freed the runs the
	// collector finds unreachable, by a finalizer on each run's first
	// element, the start of its allocation.
	newRuns := func(freed *atomic.Int32) [][]geom.Element {
		runs := make([][]geom.Element, k)
		for i := range runs {
			runs[i] = slices.Clone(elems[i*n/k : (i+1)*n/k])
			runtime.SetFinalizer(&runs[i][0], func(*geom.Element) { freed.Add(1) })
		}
		return runs
	}
	// sweep collects until all k runs are freed or it has tried 20 times, and
	// returns how many were; finalizers run on a goroutine of their own.
	sweep := func(freed *atomic.Int32) int {
		for try := 0; try < 20 && freed.Load() < k; try++ {
			runtime.GC()
			time.Sleep(time.Millisecond)
		}
		return int(freed.Load())
	}
	probe := Batch{Runs: [][]geom.Element{datagen.Uniform(datagen.Config{N: 2000, Seed: 52, MaxSide: 20})}, Grow: 1}

	var g Grid
	var freedReset, freedJoin atomic.Int32
	g.Reset(Batch{Runs: newRuns(&freedReset), Grow: 1})
	// Everything the grid allocates per element: the SoA's columns, and the
	// probe scratch, which Reset does not touch.
	held := 4*cap(g.soa.Loc) + 4*cap(g.hits)
	for d := 0; d < geom.Dims; d++ {
		held += 4 * (cap(g.soa.Lo[d]) + cap(g.soa.Hi[d]))
	}
	if held > 28*n {
		t.Fatalf("%d elements in %d runs take %d bytes beside the cell lists, %.1f an element; want at most 28", n, k, held, float64(held)/n)
	}
	t.Logf("%d elements: %d bytes beside the cell lists, %d in them", n, held, 4*(cap(g.starts)+cap(g.items)))
	// Reset reads its runs until the grid is rebuilt: the check below sees
	// a page the grid still holds.
	if got := sweep(&freedReset); got != 0 {
		t.Fatalf("after Reset, %d of %d runs were collected; the grid reads them all", got, k)
	}
	runtime.KeepAlive(&g)

	g.Join(Batch{Runs: newRuns(&freedJoin), Grow: 1}, probe, func(geom.Element, geom.Element) {})
	if got := sweep(&freedJoin); got != k {
		t.Fatalf("after Join, the grid still pins %d of %d runs", k-got, k)
	}
	runtime.KeepAlive(&g)
}

// TestJoinProbeReachingFarPastTheGrid: a probe box whose upper bound lies
// more cells past the grid than an int holds still visits the cells up to the
// grid's last, where its pairs are.
func TestJoinProbeReachingFarPastTheGrid(t *testing.T) {
	build := datagen.Uniform(datagen.Config{N: 500, Seed: 3, MaxSide: 5, World: geom.Box{Hi: geom.Point{100, 100, 100}}})
	probe := []geom.Element{{ID: 1, Box: geom.Box{Lo: geom.Point{50, 50, 50}, Hi: geom.Point{1e300, 1e300, 1e300}}}}
	got, want := collect(build, probe), naive.Join(build, probe)
	if len(want) == 0 || !naive.Equal(got, want) {
		t.Fatalf("grid join found %d pairs, naive %d", len(got), len(want))
	}
}
