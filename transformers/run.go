package transformers

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/storage"

	// Register the sharded meta-engines (shard-transformers, shard-grid,
	// shard-inmem) with the registry: every layer above — the CLI tools, the
	// bench harness, the serving daemon — imports this facade, so the import
	// here makes the sharded tier reachable everywhere by name.
	_ "repro/internal/engine/shard"
)

// Algorithm selects a spatial join engine for Run. Values are engine
// registry names — see engine.Names() (exposed here via EngineNames) for
// the full set, including engines registered by external packages.
type Algorithm string

// The four disk-based algorithms of the paper's evaluation plus the two
// in-memory references.
const (
	// AlgoTransformers is the paper's contribution (§III–§VI).
	AlgoTransformers Algorithm = engine.Transformers
	// AlgoPBSM is the Partition Based Spatial-Merge join [3].
	AlgoPBSM Algorithm = engine.PBSM
	// AlgoRTree is the synchronized R-tree traversal [2] over STR-bulkloaded
	// trees [10].
	AlgoRTree Algorithm = engine.RTree
	// AlgoGIPSY is the crawling join for contrasting densities [4]. Run
	// uses the smaller dataset as the (required) predetermined sparse side.
	AlgoGIPSY Algorithm = engine.GIPSY
	// AlgoGrid is the in-memory grid hash join [11] run directly on the
	// element sets (no paged index).
	AlgoGrid Algorithm = engine.Grid
	// AlgoNaive is the O(|A|·|B|) nested loop (reference/testing only).
	AlgoNaive Algorithm = engine.Naive
)

// Algorithms lists the disk-based algorithms in the paper's evaluation
// order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgoTransformers, AlgoPBSM, AlgoRTree, AlgoGIPSY}
}

// EngineNames lists every registered join engine — the full registry,
// including the in-memory references and externally registered engines.
func EngineNames() []string { return engine.Names() }

// RunOptions configures an end-to-end Run.
type RunOptions struct {
	// ShardTiles sets the tile count K of the sharded meta-engines
	// ("shard-<inner>"); 0 picks K from dataset statistics.
	ShardTiles int
	// Join carries the join's worker count: Run reads Join.Parallelism and
	// nothing else of it.
	Join JoinOptions
	// CollectPairs returns the result pairs in the report (costs memory on
	// big joins; counts are always reported).
	CollectPairs bool
}

// engineOptions translates RunOptions into the registry's option set.
func (opt RunOptions) engineOptions() engine.Options {
	return engine.Options{
		ShardTiles:   opt.ShardTiles,
		DiscardPairs: !opt.CollectPairs,
		Parallelism:  opt.Join.Parallelism,
	}
}

// RunReport is the uniform cost report of one end-to-end Run, with the
// paper's three join-phase metrics (join time split into in-memory time and
// modeled I/O time, and the number of intersection tests) plus indexing
// cost.
type RunReport struct {
	Algorithm Algorithm

	// Indexing phase.
	BuildWall    time.Duration
	BuildIO      storage.Stats
	BuildIOTime  time.Duration // modeled
	BuildTotal   time.Duration // BuildWall + BuildIOTime
	IndexedPages int

	// Join phase.
	JoinWall    time.Duration // in-memory join time
	JoinIO      storage.Stats
	JoinIOTime  time.Duration // modeled
	JoinTotal   time.Duration // JoinWall + JoinIOTime
	Comparisons uint64        // element-element intersection tests
	MetaComps   uint64        // metadata comparisons (descriptor/node tests)
	Results     uint64

	// TRANSFORMERS-specific detail (zero for other algorithms).
	Transformers core.JoinStats

	// Shard is the fan-out record when a sharded meta-engine ran (nil
	// otherwise): tiles, replication, dedup drops, worker utilization.
	Shard *engine.ShardStats

	// Pairs is populated only with RunOptions.CollectPairs.
	Pairs []Pair
}

// reportFromResult flattens an engine result into the facade's report type.
func reportFromResult(res *engine.Result) *RunReport {
	return &RunReport{
		Algorithm:    Algorithm(res.Engine),
		BuildWall:    res.Stats.BuildWall,
		BuildIO:      res.Stats.BuildIO,
		BuildIOTime:  res.Stats.BuildIOTime,
		BuildTotal:   res.Stats.BuildTotal,
		IndexedPages: res.Stats.IndexedPages,
		JoinWall:     res.Stats.JoinWall,
		JoinIO:       res.Stats.JoinIO,
		JoinIOTime:   res.Stats.JoinIOTime,
		JoinTotal:    res.Stats.JoinTotal,
		Comparisons:  res.Stats.Candidates,
		MetaComps:    res.Stats.MetaComparisons,
		Results:      res.Stats.Refinements,
		Transformers: res.Stats.Transformers,
		Shard:        res.Stats.Shard,
		Pairs:        res.Pairs,
	}
}

// Run executes one algorithm end to end (index both datasets, join them) on
// an in-memory simulated disk and reports uniform cost metrics. Any name in
// EngineNames() is accepted. The input slices are reordered in place by the
// partitioning algorithms.
func Run(alg Algorithm, a, b []Element, opt RunOptions) (*RunReport, error) {
	res, err := engine.Run(context.Background(), string(alg), a, b, opt.engineOptions())
	if err != nil {
		return nil, fmt.Errorf("transformers: %w", err)
	}
	return reportFromResult(res), nil
}

// RunStream executes one algorithm like Run but delivers each result pair to
// emit as the join finds it instead of materializing the result: memory
// stays bounded by the engine's working state even when a skewed join's
// output approaches |A|·|B|. Returning an error from emit aborts the join
// early and RunStream returns that error (a canceled ctx aborts the same
// way). The report's counters cover the completed join; Pairs is always nil
// and RunOptions.CollectPairs is ignored.
func RunStream(ctx context.Context, alg Algorithm, a, b []Element, opt RunOptions, emit func(Pair) error) (*RunReport, error) {
	res, err := engine.RunStream(ctx, string(alg), a, b, opt.engineOptions(), emit)
	if err != nil {
		return nil, fmt.Errorf("transformers: %w", err)
	}
	return reportFromResult(res), nil
}
