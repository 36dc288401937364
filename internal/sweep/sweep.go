// Package sweep implements the forward plane-sweep join used by the
// synchronized R-tree baseline as its in-memory kernel (paper §VII-A: "R-TREE
// uses the plane sweep"), following Brinkhoff et al. (SIGMOD '93).
//
// Both element sets are sorted by the low x-coordinate of their MBBs; a
// merge-style sweep then tests each element only against the elements of the
// other set whose x-intervals overlap it, comparing the remaining dimensions
// directly.
package sweep

import (
	"sort"

	"repro/internal/geom"
)

// Join emits every intersecting pair (a from as, b from bs) exactly once and
// returns the number of element comparisons performed. The input slices are
// sorted in place by Box.Lo[0].
func Join(as, bs []geom.Element, emit func(a, b geom.Element)) uint64 {
	sortByLoX(as)
	sortByLoX(bs)
	var comparisons uint64
	i, j := 0, 0
	for i < len(as) && j < len(bs) {
		if as[i].Box.Lo[0] <= bs[j].Box.Lo[0] {
			comparisons += scan(as[i], bs[j:], func(b geom.Element) { emit(as[i], b) })
			i++
		} else {
			comparisons += scan(bs[j], as[i:], func(a geom.Element) { emit(a, bs[j]) })
			j++
		}
	}
	return comparisons
}

// scan tests pivot against the prefix of others whose x-interval starts
// before the pivot's ends, emitting intersections; the y/z (and upper x)
// checks complete the intersection test.
func scan(pivot geom.Element, others []geom.Element, emit func(geom.Element)) uint64 {
	var comparisons uint64
	for k := 0; k < len(others) && others[k].Box.Lo[0] <= pivot.Box.Hi[0]; k++ {
		comparisons++
		if overlapsYZ(pivot.Box, others[k].Box) {
			emit(others[k])
		}
	}
	return comparisons
}

// overlapsYZ checks intersection in dimensions 1 and 2 only; the sweep
// already established the x-overlap.
func overlapsYZ(a, b geom.Box) bool {
	return a.Lo[1] <= b.Hi[1] && b.Lo[1] <= a.Hi[1] &&
		a.Lo[2] <= b.Hi[2] && b.Lo[2] <= a.Hi[2]
}

func sortByLoX(elems []geom.Element) {
	sort.Slice(elems, func(i, j int) bool {
		if elems[i].Box.Lo[0] != elems[j].Box.Lo[0] {
			return elems[i].Box.Lo[0] < elems[j].Box.Lo[0]
		}
		return elems[i].ID < elems[j].ID
	})
}
