package geom

import "slices"

// SoA is a struct-of-arrays MBB buffer: one flat float64 slice per dimension
// per bound, plus the element IDs, all sharing one index space. The layout
// exists for batched filtering — testing one query box against a run of
// candidates touches only the six bound arrays, sequentially, with no
// per-element struct loads, so the loop stays branch-light and vectorizable.
// The grid hash join batches its per-cell candidate scans through
// FilterGather.
type SoA struct {
	Lo, Hi [Dims][]float64
	ID     []uint64
}

// MakeSoA copies elems into a freshly allocated SoA, preserving order.
func MakeSoA(elems []Element) *SoA {
	s := &SoA{}
	s.Load(elems)
	return s
}

// Load replaces the buffer's contents with elems, preserving order and
// reusing the arrays it already holds: a buffer loaded over and over (the
// grid a join rebuilds per pivot) stops allocating once it has seen its
// largest batch.
func (s *SoA) Load(elems []Element) {
	n := len(elems)
	s.ID = slices.Grow(s.ID[:0], n)[:n]
	for d := 0; d < Dims; d++ {
		s.Lo[d] = slices.Grow(s.Lo[d][:0], n)[:n]
		s.Hi[d] = slices.Grow(s.Hi[d][:0], n)[:n]
	}
	for i, e := range elems {
		s.Set(i, e)
	}
}

// Len returns the number of elements in the buffer.
func (s *SoA) Len() int { return len(s.ID) }

// Set stores element e at index i.
func (s *SoA) Set(i int, e Element) {
	s.ID[i] = e.ID
	for d := 0; d < Dims; d++ {
		s.Lo[d][i] = e.Box.Lo[d]
		s.Hi[d][i] = e.Box.Hi[d]
	}
}

// FilterIntersect appends to out the indexes in [from, to) whose boxes
// intersect q (touch-inclusive, matching Box.Intersects) and returns the
// extended slice. It allocates nothing when out has capacity — callers on hot
// paths pass a reused scratch slice.
func (s *SoA) FilterIntersect(q Box, from, to int, out []int32) []int32 {
	lo0, hi0 := s.Lo[0], s.Hi[0]
	lo1, hi1 := s.Lo[1], s.Hi[1]
	lo2, hi2 := s.Lo[2], s.Hi[2]
	for i := from; i < to; i++ {
		if q.Lo[0] <= hi0[i] && lo0[i] <= q.Hi[0] &&
			q.Lo[1] <= hi1[i] && lo1[i] <= q.Hi[1] &&
			q.Lo[2] <= hi2[i] && lo2[i] <= q.Hi[2] {
			out = append(out, int32(i))
		}
	}
	return out
}

// FilterGather is FilterIntersect over a gather list: idx holds candidate
// positions (a grid cell's element list, a partition's candidate run) and the
// survivors are appended to out as positions into the SoA, preserving idx
// order. Like FilterIntersect it allocates nothing when out has capacity.
func (s *SoA) FilterGather(q Box, idx []int32, out []int32) []int32 {
	lo0, hi0 := s.Lo[0], s.Hi[0]
	lo1, hi1 := s.Lo[1], s.Hi[1]
	lo2, hi2 := s.Lo[2], s.Hi[2]
	for _, i := range idx {
		if q.Lo[0] <= hi0[i] && lo0[i] <= q.Hi[0] &&
			q.Lo[1] <= hi1[i] && lo1[i] <= q.Hi[1] &&
			q.Lo[2] <= hi2[i] && lo2[i] <= q.Hi[2] {
			out = append(out, i)
		}
	}
	return out
}
