package transformers

import (
	"fmt"

	"repro/internal/geom"
)

// Distance joins. §VIII of the paper notes that "distance join approaches
// can be trivially implemented as a variation of a spatial join (by
// enlarging the objects by the distance predicate)". This file provides
// that variation: each side's boxes are enlarged by half the distance, so
// two elements join exactly when their boxes come within the given distance
// of each other under the Chebyshev (per-axis) metric — the natural metric
// for MBB filtering, and an upper bound for the Euclidean predicate a
// refinement step would verify.

// ExpandForDistance returns a copy of elems with every box grown by d/2 on
// each side. Joining two datasets expanded this way reports exactly the
// pairs whose original boxes are within Chebyshev distance d.
func ExpandForDistance(elems []Element, d float64) ([]Element, error) {
	if d < 0 {
		return nil, fmt.Errorf("transformers: negative distance %v", d)
	}
	return geom.ExpandedForDistance(elems, d), nil
}

// Grown returns the index as a distance join at d = 2r reads it — every box
// enlarged by r, as ExpandForDistance(elems, 2r) enlarges them — sharing the
// index's pages: nothing is copied or sorted, and joins over the index and any
// number of its views may run at once. r <= 0 returns the index itself.
func (idx *Index) Grown(r float64) *Index {
	if !(r > 0) {
		return idx
	}
	return &Index{core: idx.core.Grown(r), build: idx.build}
}

// DistanceJoin finds every pair of elements (a from as, b from bs) whose
// boxes are within Chebyshev distance d of each other, using the given
// algorithm end to end. It is the enlarged-objects spatial join of §VIII.
func DistanceJoin(alg Algorithm, as, bs []Element, d float64, opt RunOptions) (*RunReport, error) {
	ea, err := ExpandForDistance(as, d)
	if err != nil {
		return nil, err
	}
	eb, err := ExpandForDistance(bs, d)
	if err != nil {
		return nil, err
	}
	return Run(alg, ea, eb, opt)
}
