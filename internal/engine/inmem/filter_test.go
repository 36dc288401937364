package inmem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine/enginetest"
	"repro/internal/geom"
)

// ord maps a float32 to an integer that steps by one between neighbours, so a
// difference of ords is a distance in ulps (-0 and +0 coincide).
func ord(f float32) int64 {
	b := int64(math.Float32bits(f) &^ (1 << 31))
	if math.Signbit(float64(f)) {
		return -b
	}
	return b
}

// TestInMemOutwardRounding: geom.RoundDown32 and RoundUp32, the bounds a
// partition stores, bracket every float64 — zeroes, denormals of both widths,
// the edges of float32's range and what lies beyond it, both sides of every
// power of two, and two million seeded values — and stay within 6 float32
// ulps of each other wherever both are finite.
func TestInMemOutwardRounding(t *testing.T) {
	check := func(v float64) {
		t.Helper()
		lo, hi := geom.RoundDown32(v), geom.RoundUp32(v)
		if !(float64(lo) <= v && v <= float64(hi)) {
			t.Fatalf("v = %g (%#x): RoundDown32 %g, RoundUp32 %g do not bracket it", v, math.Float64bits(v), lo, hi)
		}
		finite := !math.IsInf(float64(lo), 0) && !math.IsInf(float64(hi), 0)
		if gap := ord(hi) - ord(lo); finite && math.Abs(v) < math.MaxFloat32 && gap > 6 {
			t.Fatalf("v = %g (%#x): RoundDown32 %g and RoundUp32 %g are %d ulps apart", v, math.Float64bits(v), lo, hi, gap)
		}
	}
	both := func(v float64) {
		t.Helper()
		for _, w := range []float64{v, math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			check(w)
			check(-w)
		}
	}
	for _, v := range []float64{
		0, math.SmallestNonzeroFloat64, 1e-310, math.SmallestNonzeroFloat32, 1e-40, 0x1p-126,
		1, 16777216, 16777217, math.MaxFloat32, 1e39, 1e300, math.MaxFloat64, math.Inf(1),
	} {
		both(v)
	}
	for e := -1074; e <= 1023; e++ {
		both(math.Ldexp(1, e))
	}
	// MaxFloat32 itself and the value just inside it keep a finite bound on
	// the inner side and may only lose the outer one to ±Inf.
	if lo := geom.RoundDown32(math.MaxFloat32); math.IsInf(float64(lo), 0) {
		t.Fatalf("geom.RoundDown32(MaxFloat32) = %g", lo)
	}
	if hi := geom.RoundUp32(1e39); !math.IsInf(float64(hi), 1) {
		t.Fatalf("geom.RoundUp32(1e39) = %g, want +Inf", hi)
	}
	if lo := geom.RoundDown32(1e39); lo != math.MaxFloat32 {
		t.Fatalf("geom.RoundDown32(1e39) = %g, want MaxFloat32", lo)
	}

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 1_000_000; i++ {
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) {
			check(v)
		}
		check((rng.Float64()*2 - 0.5) * 1000) // coordinate-sized, some negative
	}
}

// TestInMemRoundingMonotone: a segment sorted on the exact lower bounds must be
// sorted on the stored ones, across zero, binade edges and the denormal range.
func TestInMemRoundingMonotone(t *testing.T) {
	var vs []float64
	for e := -160; e <= 130; e++ {
		p := math.Ldexp(1, e)
		for _, v := range []float64{p, math.Nextafter(p, 0), math.Nextafter(p, math.Inf(1)), p * 1.5, p * (1 + 0x1p-23), p * (1 + 0x1p-24)} {
			vs = append(vs, v, -v)
		}
	}
	vs = append(vs, 0, math.Copysign(0, -1), math.MaxFloat64, -math.MaxFloat64)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200_000; i++ {
		vs = append(vs, (rng.Float64()*2-0.5)*1000)
	}
	slices.Sort(vs)
	for i := 1; i < len(vs); i++ {
		if geom.RoundDown32(vs[i-1]) > geom.RoundDown32(vs[i]) || geom.RoundUp32(vs[i-1]) > geom.RoundUp32(vs[i]) {
			t.Fatalf("rounding is not monotone between %g (%#x) and %g (%#x)", vs[i-1], math.Float64bits(vs[i-1]), vs[i], math.Float64bits(vs[i]))
		}
	}
}

// grownNaive is the reference every filter test compares against: the nested
// loop over Box.Expand-ed copies, as a multiset of ID pairs.
func grownNaive(a, b []geom.Element, ga, gb float64) map[geom.Pair]int {
	return bruteForce(enginetest.Inflate(enginetest.Copy(a), ga), enginetest.Inflate(enginetest.Copy(b), gb))
}

// TestInMemPartitionInputsMatchExpandedCopy: PartitionInputs over (base, in
// chunks of 128, grow) is Partition over the ExpandedForDistance copy — the pairs,
// and the plan: dimensions, stripes, replicas and the candidates the sweep
// tested — on the four canonical distributions, paired as the experiments and
// the benchmark pair them, and on a pair with repeated IDs.
func TestInMemPartitionInputsMatchExpandedCopy(t *testing.T) {
	workloads := enginetest.Workloads(1500, 9700)
	workloads = append(workloads, enginetest.Workload{
		Name: "uniform-dense",
		A:    datagen.Uniform(datagen.Config{N: 1500, Seed: 9707}),
		B:    datagen.DenseCluster(datagen.Config{N: 1500, Seed: 9708}),
	})
	rep := enginetest.Workloads(1500, 9710)[0]
	rep.Name = "repeated-ids"
	for i := range rep.A {
		rep.A[i].ID %= 50
	}
	for i := range rep.B {
		rep.B[i].ID %= 7
	}
	workloads = append(workloads, rep)
	for _, w := range workloads {
		for _, distance := range []float64{0, 25} {
			for _, cfg := range []Config{{}, {Stripes: 9}} {
				label := fmt.Sprintf("%s/d=%g/stripes=%d", w.Name, distance, cfg.Stripes)
				got, gs := collect(PartitionInputs(
					Input{Base: chunked(w.A, 7), Grow: distance / 2},
					Input{Base: chunked(w.B, 7), Grow: distance / 2}, cfg), JoinConfig{Parallelism: 1})
				want, ws := collect(Partition(geom.ExpandedForDistance(w.A, distance), geom.ExpandedForDistance(w.B, distance), cfg), JoinConfig{Parallelism: 1})
				diffMultisets(t, label, want, got)
				diffMultisets(t, label+"/naive", grownNaive(w.A, w.B, distance/2, distance/2), got)
				gs.Wall, ws.Wall = 0, 0
				if gs != ws {
					t.Fatalf("%s: stats %+v, want the expanded copy's %+v", label, gs, ws)
				}
				if len(got) == 0 && distance > 0 {
					t.Fatalf("%s: no pairs to compare", label)
				}
			}
		}
	}
}

// TestInMemFilterOnlyOverlapRejected: 2^24 and 2^24+1 are one float32, so the
// sweep sees the two boxes overlap; the exact test knows they do not, until
// half a unit of growth on each side makes them touch.
func TestInMemFilterOnlyOverlapRejected(t *testing.T) {
	cube := func(id uint64, lo, hi float64) []geom.Element {
		return []geom.Element{{ID: id, Box: geom.Box{Lo: geom.Point{lo, lo, lo}, Hi: geom.Point{hi, hi, hi}}}}
	}
	a, b := cube(1, 16777215, 16777216), cube(2, 16777217, 16777219)
	for _, tc := range []struct {
		grow    float64
		results uint64
	}{{0, 0}, {0.25, 0}, {0.5, 1}} {
		got, st := collect(PartitionInputs(Input{Base: geom.ChunkedOf(a), Grow: tc.grow}, Input{Base: geom.ChunkedOf(b), Grow: tc.grow}, Config{}), JoinConfig{})
		if st.Comparisons != 1 || st.Results != tc.results || len(got) != int(tc.results) {
			t.Fatalf("grow %g: %d comparisons, %d results, emitted %v; want 1 comparison and %d results", tc.grow, st.Comparisons, st.Results, got, tc.results)
		}
	}
}

// boxesFrom decodes 48-byte groups of raw as six little-endian float64 — two
// corners, normalized — skipping a group that holds a NaN or an infinity (no
// ingest path or generator produces either). IDs repeat, so answers are
// compared as multisets.
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
				ID:  uint64(len(out) % 5),
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

// FuzzInMemJoin: on boxes made of fuzzed bits — zero extent, shared faces,
// coordinates one float64 ulp apart that one float32 holds both of, huge and
// denormal magnitudes, -0 — the kernel emits the nested loop's multiset over
// the grown boxes, grown or not, at 1, 3 and 16 stripes, prune grids of 1, 2,
// 5 and 64 cells a side, and 1 and 4 workers: the prune and the float32
// filter lose no pair and the exact test lets none through.
func FuzzInMemJoin(f *testing.F) {
	cube := func(lo, hi float64) geom.Box {
		return geom.Box{Lo: geom.Point{lo, lo, lo}, Hi: geom.Point{hi, hi, hi}}
	}
	next := func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }
	// Overlapping, nested and disjoint boxes of ordinary size.
	f.Add(rawOf(cube(0, 10), cube(5, 6), cube(20, 30), cube(-3, 0)), rawOf(cube(9, 21), cube(5.5, 5.5), cube(100, 101)), 2.5)
	// Corner to corner: with 16 stripes every lower bound is a cut, so each
	// touching pair touches exactly at one, whichever dimension is split.
	f.Add(rawOf(cube(0, 1), cube(1, 2), cube(2, 3), cube(3, 4)), rawOf(cube(1, 1), cube(2, 4), cube(4, 5), cube(-1, 0)), 0.0)
	// Apart in float64, overlapping once rounded: 2^24 and 2^24+1 share a
	// float32, and so do 1 and the float64 after it.
	f.Add(rawOf(cube(16777215, 16777216), cube(0, 1)), rawOf(cube(16777217, 16777219), cube(next(1), 2)), 0.0)
	// The same gap closed by growing both sides: 0.5 + 0.5 reaches exactly.
	f.Add(rawOf(cube(16777215, 16777216)), rawOf(cube(16777217, 16777219)), 0.5)
	// Zeroes of both signs, denormals of both widths, magnitudes beyond
	// float32 and at the end of float64.
	neg0 := math.Copysign(0, -1)
	f.Add(
		rawOf(cube(neg0, 0), cube(5e-324, 1e-310), cube(-1e-40, 1e-40), cube(-math.MaxFloat64, math.MaxFloat64), cube(1e39, 1e300)),
		rawOf(cube(0, 0), cube(neg0, 5e-324), cube(1e-45, 1), cube(3e38, 1e39), cube(-1e300, -1e39), cube(math.MaxFloat32, next(math.MaxFloat32))),
		1e-320)
	f.Fuzz(func(t *testing.T, rawA, rawB []byte, grow float64) {
		a, b := boxesFrom(rawA), boxesFrom(rawB)
		if math.IsNaN(grow) || math.IsInf(grow, 0) {
			grow = 1
		}
		for _, g := range []float64{0, math.Abs(grow)} {
			want := grownNaive(a, b, g, g)
			// Every stripe count on one cell, which prunes nothing, and every
			// prune resolution on a multi-stripe cut: the two act apart, and a
			// 64³ grid is most of an execution's cost.
			for _, run := range []struct{ r, stripes int }{{1, 1}, {1, 3}, {1, 16}, {2, 3}, {5, 3}, {maxResolution, 3}} {
				p := partition(Input{Base: geom.ChunkedOf(a), Grow: g}, Input{Base: geom.ChunkedOf(b), Grow: g}, Config{Stripes: run.stripes}, run.r)
				for _, workers := range []int{1, 4} {
					got, st := collect(p, JoinConfig{Parallelism: workers})
					diffMultisets(t, fmt.Sprintf("grow=%g/r=%d/stripes=%d/workers=%d", g, run.r, run.stripes, workers), want, got)
					n := 0
					for _, c := range got {
						n += c
					}
					if int(st.Results) != n || st.Comparisons < st.Results {
						t.Fatalf("stats %+v for %d emitted pairs", st, n)
					}
				}
			}
		}
	})
}

// chunked is elems in chunks of 1<<shift, sharing their storage, as the
// serving catalog holds an upload.
func chunked(elems []geom.Element, shift uint) geom.Chunked {
	var chunks [][]geom.Element
	for ; len(elems) > 0; elems = elems[min(1<<shift, len(elems)):] {
		chunks = append(chunks, elems[:min(1<<shift, len(elems))])
	}
	return geom.NewChunked(chunks, shift)
}
