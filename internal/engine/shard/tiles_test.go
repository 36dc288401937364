package shard

import (
	"testing"

	"repro/internal/engine/enginetest"
	"repro/internal/engine/planner"
)

// TestShardTilesSelection: the automatic tile count tracks cardinality and
// doubles on skew, within [1, maxAutoTiles].
func TestShardTilesSelection(t *testing.T) {
	smallA, smallB := enginetest.UniformPair(4000, 31, 32)
	if k := autoTiles(planner.Analyze(smallA), planner.Analyze(smallB)); k != 1 {
		t.Errorf("8k combined elements: K=%d, want 1", k)
	}
	bigA, bigB := enginetest.UniformPair(120_000, 33, 34)
	kUniform := autoTiles(planner.Analyze(bigA), planner.Analyze(bigB))
	if kUniform < 4 {
		t.Errorf("240k combined elements: K=%d, want >= 4", kUniform)
	}
	skewA, skewB := enginetest.SkewedPair(120_000, 35, 36)
	kSkew := autoTiles(planner.Analyze(skewA), planner.Analyze(skewB))
	if kSkew <= kUniform {
		t.Errorf("skew must raise the tile count: skewed K=%d <= uniform K=%d", kSkew, kUniform)
	}
	if kSkew > maxAutoTiles {
		t.Errorf("K=%d exceeds maxAutoTiles", kSkew)
	}
}

// TestHilbertWeights: the spatial histogram accounts for every element and
// concentrates mass for clustered data — the signal the balanced cut uses.
func TestHilbertWeights(t *testing.T) {
	n := 20_000
	uniform, _ := enginetest.UniformPair(n, 41, 42)
	clustered, _ := enginetest.SkewedPair(n, 43, 44)
	world := planner.Analyze(uniform).MBB.Union(planner.Analyze(clustered).MBB)

	occupied := func(w []uint32) (total uint64, cells int) {
		for _, c := range w {
			total += uint64(c)
			if c > 0 {
				cells++
			}
		}
		return
	}
	tu, cu := occupied(hilbertWeights(uniform, world, gridOrder))
	tc, cc := occupied(hilbertWeights(clustered, world, gridOrder))
	if tu != uint64(n) || tc != uint64(n) {
		t.Fatalf("weights must account for every element: %d / %d, want %d", tu, tc, n)
	}
	if cc >= cu {
		t.Errorf("clustered data must occupy fewer Hilbert cells: %d vs uniform %d", cc, cu)
	}
}
