// Package planner selects a join engine per request from cheap dataset
// statistics. The paper's thesis is that no fixed data layout is robust to
// non-uniform distributions (§I, §VII), and its serving property is that an
// index is built once and reused by every join (§III); the planner is the
// serving-side consequence of both. It prices the engines that reuse a catalog
// structure or run in memory — transformers, inmem, grid and their sharded
// forms — from three signals a single O(n) pass extracts (cardinality, a skew
// coefficient and a clustering fraction over a coarse grid) and picks the
// cheapest, falling back to TRANSFORMERS whenever the prediction is
// inconclusive. The paper's per-request-indexing baselines (pbsm, rtree,
// gipsy) and the naive reference carry no formula: they stay listed, unpriced,
// and run only when a request names them.
//
// The cost formulas are calibrated against the recorded cross-engine
// comparison in BENCH_1.json (and the BENCH_0.json baseline): TRANSFORMERS
// prices as batched, mostly sequential page reads under the default disk
// model, the in-memory engines as pure CPU.
package planner

import (
	"math"

	"repro/internal/geom"
	"repro/internal/hilbert"
)

// DatasetStats is the cheap statistical fingerprint of one dataset. It is
// computed in one pass plus a coarse-grid aggregation and cached by the
// serving catalog per dataset version.
type DatasetStats struct {
	// Count is the dataset cardinality.
	Count int `json:"count"`
	// MBB is the tight bounding box of the dataset. With GridDim and
	// TotalCells it sizes the analysis grid's cells, which is what
	// ExpandStats measures a distance join's expansion against.
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
	if len(elems) == 0 {
		return st
	}

	// Coarse grid sized so uniform data averages ~8 centers per cell,
	// clamped to keep both tiny datasets and the aggregation pass cheap.
	dim := int(math.Cbrt(float64(len(elems)) / 8))
	if dim < 4 {
		dim = 4
	}
	if dim > 32 {
		dim = 32
	}
	st.GridDim = dim
	st.TotalCells = dim * dim * dim
	counts := make([]int, st.TotalCells)
	for _, e := range elems {
		c := e.Box.Center()
		idx := 0
		for d := 0; d < geom.Dims; d++ {
			side := st.MBB.Side(d) / float64(dim)
			i := 0
			if side > 0 {
				i = int((c[d] - st.MBB.Lo[d]) / side)
			}
			if i < 0 {
				i = 0
			}
			if i >= dim {
				i = dim - 1
			}
			idx = idx*dim + i
		}
		counts[idx]++
	}

	mean := float64(len(elems)) / float64(st.TotalCells)
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
	st.ClusterFraction = float64(clustered) / float64(len(elems))
	return st
}

// ShardGridOrder is the Hilbert-curve order of the tiling analysis grid the
// sharded meta-engines cut the space on: order 5 gives 32³ = 32768 cells,
// matching the upper resolution of Analyze's density grid while keeping the
// weight array small enough to build per join.
const ShardGridOrder = 5

// HilbertWeights is the spatial form of Analyze's density grid: the
// element-center count of every cell of the order-`order` Hilbert grid over
// world, indexed by Hilbert value. Contiguous ranges of this array are
// contiguous Hilbert-order runs of space, which is exactly what the shard
// engine needs to place density-balanced tile boundaries — equal-weight cuts
// of this array keep a clustered dataset from producing one hot shard.
// Centers outside world are clamped to its boundary cells.
func HilbertWeights(elems []geom.Element, world geom.Box, order int) []uint32 {
	m := hilbert.NewMapper(world, order)
	w := make([]uint32, uint64(1)<<uint(3*order))
	for _, e := range elems {
		w[m.Value(e.Box.Center())]++
	}
	return w
}

// shardTargetPerTile is the combined per-tile cardinality the tile-count
// selection aims for: small enough that per-tile index builds stay cheap and
// the worker pool has slack to balance, large enough that partitioning
// overhead and boundary replication stay a small fraction of the join.
const shardTargetPerTile = 24_000

// MaxShardTiles bounds the automatic tile count.
const MaxShardTiles = 64

// ShardTiles selects the tile count K a sharded meta-engine should fan out
// to, from the same cheap statistics the planner prices engines on:
// cardinality sets the baseline (one tile per ~24K combined elements), and
// skewed data doubles it — smaller tiles give the density-balanced cut the
// resolution to split hot clusters across workers instead of handing one
// worker the whole cluster. Returns at least 1 (inputs too small to shard).
func ShardTiles(a, b DatasetStats) int {
	k := (a.Count + b.Count) / shardTargetPerTile
	if k < 1 {
		return 1
	}
	if math.Max(a.SkewCV, b.SkewCV) > 2 {
		k *= 2
	}
	if k > MaxShardTiles {
		k = MaxShardTiles
	}
	return k
}
