package geom

import (
	"math"
	"math/bits"
)

// SoA is a filter over element runs it reads in place, which must not change
// while it is loaded: per element, the box rounded outward to float32 — one
// flat slice per dimension per bound — and a locator, run<<shift | offset, of
// the element in its run. That is 28 bytes an element; the runs themselves
// are not copied. The rounded box contains the exact one, so a query that
// intersects the exact box intersects the rounded one, and the float32
// columns are a filter that loses nothing: a batched scan over them touches
// only the six bound arrays, with no per-element struct loads. Every
// candidate that passes is then decided by the float64 test on the run's own
// element, so FilterIntersect reports exactly what Box.Intersects does. The
// grid hash join batches its per-cell candidate scans through Candidates.
type SoA struct {
	Lo, Hi [Dims][]float32
	Loc    []uint32
	// runs are what Loc points into, read-only, each element grown by grow
	// where it is used; shift splits a locator.
	runs  [][]Element
	grow  float64
	shift uint
	// one is the run list of Load.
	one [1][]Element
}

// MakeSoA loads elems into a fresh SoA, preserving order.
func MakeSoA(elems []Element) *SoA {
	s := &SoA{}
	s.Load(elems)
	return s
}

// Load replaces the buffer's contents with elems, preserving order and
// reusing the arrays it already holds: a buffer loaded over and over (the
// grid a join rebuilds per pivot) stops allocating once it has seen its
// largest batch. The buffer reads elems until the next Load or Release.
func (s *SoA) Load(elems []Element) {
	s.one[0] = elems
	s.LoadGrown(s.one[:], 0)
}

// LoadGrown is Load over the concatenation of runs, each box grown by r as
// Box.Grow grows it: a join loads the pages it read, by reference, without
// copying them. It returns MBBOf of the grown boxes, bound for bound, and the
// sum of their extents over every dimension, added element by element in
// dimension order.
func (s *SoA) LoadGrown(runs [][]Element, r float64) (mbb Box, sides float64) {
	n, longest := 0, 0
	for _, run := range runs {
		n += len(run)
		longest = max(longest, len(run))
	}
	s.runs, s.grow = runs, r
	s.shift = uint(bits.Len(uint(max(longest, 1) - 1)))
	// Full runs of one length, as full pages are, take fewer than twice their
	// elements in locator slots, and the grid numbers its elements in int32s.
	if len(runs)<<s.shift > 1<<32 {
		panic("geom: runs too many and too short for a 32-bit run<<shift|offset locator")
	}
	s.Loc = growTo(s.Loc, n)
	for d := 0; d < Dims; d++ {
		s.Lo[d] = growTo(s.Lo[d], n)
		s.Hi[d] = growTo(s.Hi[d], n)
	}
	mbb = EmptyBox()
	i := 0
	for ri, run := range runs {
		for off := range run {
			b := run[off].Box
			b.Grow(r)
			for d := 0; d < Dims; d++ {
				if b.Lo[d] < mbb.Lo[d] {
					mbb.Lo[d] = b.Lo[d]
				}
				if b.Hi[d] > mbb.Hi[d] {
					mbb.Hi[d] = b.Hi[d]
				}
				sides += b.Hi[d] - b.Lo[d]
				s.Lo[d][i], s.Hi[d][i] = RoundDown32(b.Lo[d]), RoundUp32(b.Hi[d])
			}
			s.Loc[i] = uint32(ri)<<s.shift | uint32(off)
			i++
		}
	}
	return mbb, sides
}

// growTo returns s resized to n, reallocated to exactly n when it has no
// room: a reloaded buffer holds what its largest batch needs and no more,
// since it stops reallocating once it has seen that batch.
func growTo[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Len returns the number of elements in the buffer.
func (s *SoA) Len() int { return len(s.Loc) }

// At returns element i, grown as it was loaded, read from its run.
func (s *SoA) At(i int32) Element {
	loc := s.Loc[i]
	e := s.runs[loc>>s.shift][loc&(1<<s.shift-1)]
	e.Box.Grow(s.grow)
	return e
}

// Release drops the buffer's references to the runs it was loaded from,
// keeping its arrays for the next load; At must not be called until then.
func (s *SoA) Release() {
	s.runs, s.one[0] = nil, nil
}

// FilterIntersect appends to out the indexes in [from, to) whose boxes
// intersect q (touch-inclusive, matching Box.Intersects) and returns the
// extended slice. It allocates nothing when out has capacity — callers on hot
// paths pass a reused scratch slice.
func (s *SoA) FilterIntersect(q Box, from, to int, out []int32) []int32 {
	start := len(out)
	lo0, hi0 := s.Lo[0][:to], s.Hi[0][:to]
	lo1, hi1 := s.Lo[1][:to], s.Hi[1][:to]
	lo2, hi2 := s.Lo[2][:to], s.Hi[2][:to]
	for i := from; i < to; i++ {
		if b2i(q.Lo[0] <= float64(hi0[i]))&b2i(float64(lo0[i]) <= q.Hi[0])&
			b2i(q.Lo[1] <= float64(hi1[i]))&b2i(float64(lo1[i]) <= q.Hi[1])&
			b2i(q.Lo[2] <= float64(hi2[i]))&b2i(float64(lo2[i]) <= q.Hi[2]) != 0 {
			out = append(out, int32(i))
		}
	}
	// Decide each candidate on its run's element.
	kept := out[:start]
	for _, i := range out[start:] {
		if e := s.At(i); e.Box.Intersects(q) {
			kept = append(kept, i)
		}
	}
	return kept
}

// Candidates is the float32 half of FilterIntersect over a gather list: idx
// holds candidate positions (a grid cell's element list) and the positions
// whose rounded boxes meet q are appended to out, in idx order. That is every
// element whose box intersects q and possibly some a few float32 ulps short
// of it: the caller decides each with At and Box.Intersects, as the grid join
// does with the element it then emits. It allocates nothing when out has
// capacity.
func (s *SoA) Candidates(q Box, idx []int32, out []int32) []int32 {
	// Every column has lo0's length: one bounds check covers all six.
	lo0 := s.Lo[0]
	n := len(lo0)
	hi0, lo1, hi1, lo2, hi2 := s.Hi[0][:n], s.Lo[1][:n], s.Hi[1][:n], s.Lo[2][:n], s.Hi[2][:n]
	for _, i := range idx {
		if b2i(q.Lo[0] <= float64(hi0[i]))&b2i(float64(lo0[i]) <= q.Hi[0])&
			b2i(q.Lo[1] <= float64(hi1[i]))&b2i(float64(lo1[i]) <= q.Hi[1])&
			b2i(q.Lo[2] <= float64(hi2[i]))&b2i(float64(lo2[i]) <= q.Hi[2]) != 0 {
			out = append(out, i)
		}
	}
	return out
}

// b2i is 1 for true, so the filters combine their six tests without a branch
// for each.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// slack is more than one float32 ulp of v — |v|·2⁻²³ is at least the ulp of
// v's binade, and the smallest denormal covers the values below the normal
// range, where that product vanishes. It is the same arithmetic for every v:
// rounding to nearest and stepping to the neighbour only when the result fell
// on the wrong side of v doubles the cost of a load, on the mispredicted
// branch. The price is bounds one to two ulps wider than the tightest.
func slack(v float64) float64 {
	return math.Abs(v)*(1.0/(1<<23)) + math.SmallestNonzeroFloat32
}

// RoundDown32 returns a float32 at or below v, within three ulps of it: v is
// taken down by slack in float64, and rounding that to the nearest float32
// brings it back up by half an ulp at most. Both steps are monotone. A value
// beyond float32 keeps to the safe side: MaxFloat32 above, and -Inf below,
// where slack carries it past the last float32.
func RoundDown32(v float64) float32 {
	if v > math.MaxFloat32 {
		return math.MaxFloat32
	}
	return float32(v - slack(v))
}

// RoundUp32 returns a float32 at or above v: RoundDown32 mirrored, every step
// of which is symmetric about zero.
func RoundUp32(v float64) float32 { return -RoundDown32(-v) }
