package grid

import "repro/internal/geom"

// SelfPairs reports every unordered pair (i, j), i < j, of intersecting
// boxes exactly once and returns the number of box comparisons performed.
// TRANSFORMERS and GIPSY use it for the connectivity self-join over
// partition regions (paper §IV "Connectivity").
func SelfPairs(boxes []geom.Box, emit func(i, j int)) uint64 {
	elems := make([]geom.Element, len(boxes))
	for i, b := range boxes {
		elems[i] = geom.Element{ID: uint64(i), Box: b}
	}
	g := Build(elems)
	for i, e := range elems {
		g.Probe(e, func(other geom.Element) {
			if other.ID < uint64(i) {
				emit(int(other.ID), i)
			}
		})
	}
	return g.Comparisons
}
