// Shard fan-out pricing tests. This file lives in the external test package
// so it can import the shard meta-engine (which imports the planner); its
// registration side effect puts the three sharded forms into the registry for
// the whole planner test binary.
package planner_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/engine/planner"
	_ "repro/internal/engine/shard"
	"repro/internal/geom"
)

// TestShardTilesSelection: tile count tracks cardinality and doubles on
// skew, within [1, MaxShardTiles].
func TestShardTilesSelection(t *testing.T) {
	smallA, smallB := enginetest.UniformPair(4000, 31, 32)
	if k := planner.ShardTiles(planner.Analyze(smallA), planner.Analyze(smallB)); k != 1 {
		t.Errorf("8k combined elements: K=%d, want 1", k)
	}
	bigA, bigB := enginetest.UniformPair(120_000, 33, 34)
	sa, sb := planner.Analyze(bigA), planner.Analyze(bigB)
	kUniform := planner.ShardTiles(sa, sb)
	if kUniform < 4 {
		t.Errorf("240k combined elements: K=%d, want >= 4", kUniform)
	}
	skewA, skewB := enginetest.SkewedPair(120_000, 35, 36)
	kSkew := planner.ShardTiles(planner.Analyze(skewA), planner.Analyze(skewB))
	if kSkew <= kUniform {
		t.Errorf("skew must raise the tile count: skewed K=%d <= uniform K=%d", kSkew, kUniform)
	}
	if kSkew > planner.MaxShardTiles {
		t.Errorf("K=%d exceeds MaxShardTiles", kSkew)
	}
}

// TestPlanPricesShardFanOut: with a real worker budget, the planner must
// price the sharded adaptive join below single-node TRANSFORMERS at serving
// scale and select it; with a single worker the fan-out is pure overhead and
// single-node must win.
func TestPlanPricesShardFanOut(t *testing.T) {
	a, b := enginetest.ClusteredPair(160_000, 37, 38)
	sa, sb := planner.Analyze(a), planner.Analyze(b)

	wide := planner.Plan(sa, sb, planner.Config{ShardWorkers: 8})
	if wide.Engine != engine.ShardTransformers {
		t.Errorf("8 workers: chose %q, want shard-transformers\nscores: %+v", wide.Engine, wide.Scores)
	}
	if wide.Fallback {
		t.Error("sharded transformers is robust; no fallback flag expected")
	}

	narrow := planner.Plan(sa, sb, planner.Config{ShardWorkers: 1})
	if narrow.Engine != engine.Transformers {
		t.Errorf("1 worker: chose %q, want transformers\nscores: %+v", narrow.Engine, narrow.Scores)
	}
	shardScore := scoreIn(t, narrow, engine.ShardTransformers)
	trScore := scoreIn(t, narrow, engine.Transformers)
	if !(shardScore > trScore) {
		t.Errorf("1 worker: shard %.1fms must price above single-node %.1fms", shardScore, trScore)
	}

	// A request that pins the fan-out must be priced at the pinned K — a
	// K=1 pin is pure overhead over single-node, so the plan (and an
	// "auto" request carrying the pin) must not select the shard on the
	// strength of a fan-out that would never run.
	pinned := planner.Plan(sa, sb, planner.Config{ShardWorkers: 8, ShardTiles: 1})
	if pinned.Engine != engine.Transformers {
		t.Errorf("pinned K=1: chose %q, want transformers\nscores: %+v", pinned.Engine, pinned.Scores)
	}
	if s := scoreIn(t, pinned, engine.ShardTransformers); !(s > scoreIn(t, pinned, engine.Transformers)) {
		t.Errorf("pinned K=1: shard %.1fms must price above single-node", s)
	}
}

// TestPlanShardGridKeepsInMemoryCap: tiles run as threads of one process,
// so sharding an in-memory engine parallelizes its work without shrinking
// the resident footprint — the combined cardinality cap must bind shard-grid
// exactly like grid. Under the cap, shard-grid is priced (and with a worker
// budget beats single-node grid: a parallel in-memory join).
func TestPlanShardGridKeepsInMemoryCap(t *testing.T) {
	bigA, bigB := enginetest.UniformPair(150_000, 39, 40)
	d := planner.Plan(planner.Analyze(bigA), planner.Analyze(bigB), planner.Config{ShardWorkers: 4})
	if g := scoreIn(t, d, engine.Grid); !math.IsInf(g, 1) {
		t.Errorf("grid above the cap must score +Inf, got %v", g)
	}
	if sg := scoreIn(t, d, engine.ShardGrid); !math.IsInf(sg, 1) {
		t.Errorf("shard-grid above the cap must score +Inf, got %v", sg)
	}

	// Under the cap, shard-grid is priced. On clustered data — where grid's
	// dense-cell blow-up is the dominant term and parallelizes across
	// tiles — a worker budget makes the sharded form cheaper than
	// single-node grid; on smooth data the partitioning pass costs more
	// than the join it splits, and the planner must know that too.
	clA, clB := enginetest.ClusteredPair(60_000, 45, 46)
	d = planner.Plan(planner.Analyze(clA), planner.Analyze(clB), planner.Config{ShardWorkers: 8})
	sg := scoreIn(t, d, engine.ShardGrid)
	if math.IsInf(sg, 1) {
		t.Fatal("shard-grid under the cap must be priced")
	}
	if g := scoreIn(t, d, engine.Grid); !(sg < g) {
		t.Errorf("8 workers, clustered, under the cap: shard-grid %.1fms must beat grid %.1fms", sg, g)
	}
	unA, unB := enginetest.UniformPair(60_000, 47, 48)
	d = planner.Plan(planner.Analyze(unA), planner.Analyze(unB), planner.Config{ShardWorkers: 8})
	if sg, g := scoreIn(t, d, engine.ShardGrid), scoreIn(t, d, engine.Grid); !(sg > g) {
		t.Errorf("smooth data: partitioning overhead must keep shard-grid %.1fms above grid %.1fms", sg, g)
	}
}

// TestPlanDaemonSweepNeverIndexesPerRequest sweeps the statistics space in the
// daemon's configuration (catalog-resident TRANSFORMERS indexes) at every
// worker budget: auto must resolve to an engine that reuses a catalog
// structure or runs in memory, never to one that builds a paged index per
// request. The MBB axis varies the volume-per-element ratio of the two sides,
// the signal under which a priced gipsy took the high-contrast cells.
func TestPlanDaemonSweepNeverIndexesPerRequest(t *testing.T) {
	stats := func(n int, skew, cluster, side float64) planner.DatasetStats {
		return planner.DatasetStats{Count: n, SkewCV: skew, ClusterFraction: cluster,
			MBB: geom.Box{Hi: geom.Point{side, side, side}}, GridDim: 32, TotalCells: 32 * 32 * 32}
	}
	cards := []int{10, 100, 1_000, 10_000, 100_000, 500_000, 1_000_000, 5_000_000}
	for _, w := range []int{1, 2, 4, 8, 16} {
		cfg := planner.Config{PrebuiltTransformers: true, ShardWorkers: w}
		bad := make(map[string]int)
		for _, na := range cards {
			for _, nb := range cards {
				for _, skew := range []float64{0.3, 1, 2, 4, 8} {
					for _, cluster := range []float64{0, 0.1, 0.5, 0.9} {
						for _, side := range []float64{1000, 464, 100} {
							d := planner.Plan(stats(na, skew, cluster, 1000), stats(nb, skew, cluster, side), cfg)
							switch strings.TrimPrefix(d.Engine, engine.ShardPrefix) {
							case engine.Transformers, engine.InMem, engine.Grid:
							default:
								bad[d.Engine]++
							}
						}
					}
				}
			}
		}
		if len(bad) > 0 {
			t.Errorf("%d workers: auto resolved to per-request-indexing engines in %v of 3840 cells", w, bad)
		}
	}
}

// TestHilbertWeights: the spatial histogram accounts for every element and
// concentrates mass for clustered data — the signal the balanced cut uses.
func TestHilbertWeights(t *testing.T) {
	n := 20_000
	uniform, _ := enginetest.UniformPair(n, 41, 42)
	clustered, _ := enginetest.SkewedPair(n, 43, 44)
	order := planner.ShardGridOrder
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
	wu := planner.HilbertWeights(uniform, world, order)
	wc := planner.HilbertWeights(clustered, world, order)
	tu, cu := occupied(wu)
	tc, cc := occupied(wc)
	if tu != uint64(n) || tc != uint64(n) {
		t.Fatalf("weights must account for every element: %d / %d, want %d", tu, tc, n)
	}
	if cc >= cu {
		t.Errorf("clustered data must occupy fewer Hilbert cells: %d vs uniform %d", cc, cu)
	}
}

// scoreIn returns one engine's predicted cost from a decision.
func scoreIn(t *testing.T, d planner.Decision, name string) float64 {
	t.Helper()
	for _, s := range d.Scores {
		if s.Engine == name {
			return s.CostMS
		}
	}
	t.Fatalf("engine %q missing from scores %+v", name, d.Scores)
	return 0
}
