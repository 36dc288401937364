package transformers

// Distance joins. §VIII of the paper notes that "distance join approaches
// can be trivially implemented as a variation of a spatial join (by
// enlarging the objects by the distance predicate)". An index reads as that
// variation through Grown: each side's boxes are enlarged by half the
// distance, so two elements join exactly when their boxes come within the
// given distance of each other under the Chebyshev (per-axis) metric — the
// natural metric for MBB filtering, and an upper bound for the Euclidean
// predicate a refinement step would verify.

// Grown returns the index as a distance join at d = 2r reads it — every box
// enlarged by r, as geom.ExpandedForDistance(elems, 2r) enlarges them — sharing
// the index's pages: nothing is copied or sorted, and joins over the index and
// any number of its views may run at once. r <= 0 returns the index itself.
func (idx *Index) Grown(r float64) *Index {
	if !(r > 0) {
		return idx
	}
	return &Index{core: idx.core.Grown(r), build: idx.build}
}
