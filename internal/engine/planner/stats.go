// Package planner selects a join engine per request. The paper's thesis is
// that no fixed data layout is robust to non-uniform distributions (§I,
// §VII), and its serving property is that an index is built once and reused
// by every join (§III); the planner is the serving-side consequence of both.
// It chooses between the two engines the daemon serves — transformers over a
// dataset's catalog index, inmem over a pair's resident partition — by the
// kernel wall each measured on the pair (the wall table, learned.go),
// exploring an unmeasured one first; a pair's combined cardinality gates
// inmem. Analyze's one O(n) pass also extracts a skew coefficient and a
// clustering fraction over a coarse grid, which the sharded engine sizes its
// tiles by.
package planner

import (
	"math"

	"repro/internal/geom"
)

// DatasetStats is the cheap statistical fingerprint of one dataset, computed
// in one pass plus a coarse-grid aggregation. Plan reads only Count.
type DatasetStats struct {
	// Count is the dataset cardinality.
	Count int `json:"count"`
	// MBB is the tight bounding box of the dataset; the analysis grid
	// spans it.
	MBB geom.Box `json:"-"`
	// GridDim is the per-dimension resolution of the analysis grid;
	// TotalCells is GridDim^3.
	GridDim    int `json:"grid_dim"`
	TotalCells int `json:"total_cells"`
	// SkewCV is the coefficient of variation (stddev/mean) of per-cell
	// center counts over all grid cells. Uniform data stays near the
	// Poisson floor 1/sqrt(mean); clustered data runs far above it.
	SkewCV float64 `json:"skew_cv"`
	// ClusterFraction is the fraction of elements whose center lies in a
	// cell denser than 4x the mean — the mass a space-oriented partitioner
	// replicates and a fixed tree overlaps on.
	ClusterFraction float64 `json:"cluster_fraction"`
}

// Analyze computes the statistical fingerprint of a dataset in one pass over
// the elements plus one pass over a coarse grid (at most 32^3 cells).
func Analyze(elems []geom.Element) DatasetStats {
	st := DatasetStats{Count: len(elems), MBB: geom.MBBOf(elems)}
	if st.Count == 0 {
		return st
	}

	// Coarse grid sized so uniform data averages ~8 centers per cell,
	// clamped to keep both tiny datasets and the aggregation pass cheap.
	dim := int(math.Cbrt(float64(st.Count) / 8))
	if dim < 4 {
		dim = 4
	}
	if dim > 32 {
		dim = 32
	}
	st.GridDim = dim
	st.TotalCells = dim * dim * dim
	counts := make([]int, st.TotalCells)
	// One variable a dimension, not a Point: the compiler keeps these in
	// registers, where it keeps an array in memory.
	lx, ly, lz := st.MBB.Lo[0], st.MBB.Lo[1], st.MBB.Lo[2]
	sx, sy, sz := st.MBB.Side(0)/float64(dim), st.MBB.Side(1)/float64(dim), st.MBB.Side(2)/float64(dim)
	for k := range elems {
		b := &elems[k].Box
		x := cellOf((b.Lo[0]+b.Hi[0])/2, lx, sx, dim)
		y := cellOf((b.Lo[1]+b.Hi[1])/2, ly, sy, dim)
		z := cellOf((b.Lo[2]+b.Hi[2])/2, lz, sz, dim)
		counts[(x*dim+y)*dim+z]++
	}

	mean := float64(st.Count) / float64(st.TotalCells)
	var variance float64
	clusterThreshold := 4 * mean
	clustered := 0
	for _, c := range counts {
		d := float64(c) - mean
		variance += d * d
		if float64(c) > clusterThreshold {
			clustered += c
		}
	}
	variance /= float64(st.TotalCells)
	if mean > 0 {
		st.SkewCV = math.Sqrt(variance) / mean
	}
	st.ClusterFraction = float64(clustered) / float64(st.Count)
	return st
}

// cellOf returns the cell of a grid of dim cells of extent side, starting at
// lo, that the center coordinate c falls in; coordinates outside the grid
// fall in its first or last cell.
func cellOf(c, lo, side float64, dim int) int {
	i := 0
	if side > 0 {
		i = int((c - lo) / side)
	}
	return min(max(i, 0), dim-1)
}
