package engine

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/engine/inmem"
	"repro/internal/geom"
	"repro/internal/gipsy"
	"repro/internal/grid"
	"repro/internal/pbsm"
	"repro/internal/rtree"
	"repro/internal/storage"
)

// Built-in engine names, registered below; internal/engine/shard registers
// the three sharded forms and Register accepts more.
const (
	Transformers = "transformers"
	PBSM         = "pbsm"
	RTree        = "rtree"
	GIPSY        = "gipsy"
	Grid         = "grid"
	InMem        = "inmem"
	Naive        = "naive"
)

// Sharded meta-engine names. The engines themselves live in
// internal/engine/shard (imported for side effect by the layers above); the
// names are declared here so the planner can price shard fan-out without
// importing the meta-engine (which imports the planner).
const (
	// ShardPrefix prefixes every sharded meta-engine name; the suffix is
	// the inner engine that runs per tile.
	ShardPrefix = "shard-"
	// ShardTransformers shards the adaptive TRANSFORMERS join.
	ShardTransformers = ShardPrefix + Transformers
	// ShardGrid shards the in-memory grid hash join.
	ShardGrid = ShardPrefix + Grid
	// ShardInMem shards the cache-resident stripe-partition join.
	ShardInMem = ShardPrefix + InMem
)

// ShardMaxTiles is the contract bound on Options.ShardTiles: sharded engines
// clamp larger pins to it, and layers that key work by the pin (the serving
// cache) normalize with the same bound so equal executions share entries.
const ShardMaxTiles = 256

// builtin is one built-in engine: a build step that indexes the prepared
// inputs and the kernel that joins what was built — the two phases §VII
// measures for every algorithm. Everything between them is builtin.JoinStream.
type builtin struct {
	name string
	// parallel marks a kernel whose workers emit concurrently (one that honors
	// Options.Parallelism); its sink serializes them.
	parallel bool
	// prebuilt returns the kernel over the catalog-owned structures this
	// engine understands, or nil when opt.Prebuilt carries none of them. Nil
	// for the engines that always build.
	prebuilt func(opt Options) kernel
	// build indexes a and b — prepared, both non-empty — books the indexing
	// cost into st (Stats.paged for a paged index) and returns the kernel over
	// the result.
	build func(a, b []geom.Element, opt Options, st *Stats) (kernel, error)
}

// kernel is an engine's join phase: it reports pairs through s, stops early
// once s's abort flag is raised, and books its cost with st.joined.
type kernel func(s *sink, st *Stats) error

func (e builtin) Name() string { return e.name }

// JoinStream is the one execution protocol of the built-ins: prepare and build
// (or take the prebuilt structures and skip both — the raw inputs are then
// ignored, nil by design), honor a cancellation that arrived during the build,
// run the kernel into a sink that watches ctx, and resolve the outcome. An
// empty input joins nothing and builds nothing: its result is the finished
// zero Stats, emit never called.
func (e builtin) JoinStream(ctx context.Context, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error) {
	res := &Result{Engine: e.name}
	var join kernel
	if e.prebuilt != nil && opt.Prebuilt != nil {
		join = e.prebuilt(opt)
	}
	if join == nil {
		var err error
		if a, b, opt, err = Prepare(ctx, a, b, opt); err != nil {
			return nil, err
		}
		if len(a) == 0 || len(b) == 0 {
			res.Stats.Finish()
			return res, nil
		}
		if join, err = e.build(a, b, opt, &res.Stats); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newSink(emit, e.parallel, opt)
	defer s.watch(ctx)()
	if err := join(s, &res.Stats); err != nil {
		return nil, err
	}
	if err := s.finish(ctx); err != nil {
		return nil, err
	}
	res.Stats.Finish()
	return res, nil
}

func init() {
	// Registration order is the wire-visible Names() order: the paper's
	// presentation order, then the in-memory references.
	for _, e := range []builtin{
		{name: Transformers, parallel: true, prebuilt: transformersPrebuilt, build: transformersBuild},
		{name: PBSM, build: pbsmBuild},
		{name: RTree, build: rtreeBuild},
		{name: GIPSY, build: gipsyBuild},
		{name: Grid, build: gridBuild},
		{name: InMem, parallel: true, prebuilt: inmemPrebuilt, build: inmemBuild},
		{name: Naive, build: naiveBuild},
	} {
		Register(e)
	}
}

// transformers is the paper's adaptive join (§III–§VI): sequential, parallel
// (Options.Parallelism) and distance (Options.Distance) execution through one
// kernel, over catalog indexes when Options.Prebuilt supplies both — distance
// expansion included, the catalog hands over views grown by it.
func transformersPrebuilt(opt Options) kernel {
	if opt.Prebuilt.A == nil || opt.Prebuilt.B == nil {
		return nil
	}
	return transformersKernel(opt.Prebuilt.A, opt.Prebuilt.B, opt)
}

func transformersBuild(a, b []geom.Element, opt Options, st *Stats) (kernel, error) {
	cfg := core.IndexConfig{World: opt.World}
	stA, stB := storage.NewMemStore(opt.PageSize), storage.NewMemStore(opt.PageSize)
	ia, bsA, err := core.BuildIndex(stA, a, cfg)
	if err != nil {
		return nil, err
	}
	ib, bsB, err := core.BuildIndex(stB, b, cfg)
	if err != nil {
		return nil, err
	}
	st.paged(stA, bsA.Wall, bsA.IO)
	st.paged(stB, bsB.Wall, bsB.IO)
	return transformersKernel(ia, ib, opt), nil
}

func transformersKernel(ia, ib *core.Index, opt Options) kernel {
	return func(s *sink, st *Stats) error {
		js, err := core.Join(ia, ib, core.JoinConfig{
			DisableTransforms: opt.DisableTransforms,
			TSU:               opt.TSU,
			TSO:               opt.TSO,
			FixedThresholds:   opt.FixedThresholds,
			Parallelism:       opt.Parallelism,
			Concurrent:        opt.Concurrent,
			Stop:              s.flag(),
		}, s.send)
		st.Transformers = js
		st.joined(js.Wall, js.IO, js.Comparisons, js.MetaComparisons, js.Results)
		return err
	}
}

// pbsm is the Partition Based Spatial-Merge join [3]: uniform tiles,
// round-robin partitions, multiple assignment, reference-tile dedup.
func pbsmBuild(a, b []geom.Element, opt Options, st *Stats) (kernel, error) {
	tiles := opt.PBSMTilesPerDim
	if tiles <= 0 {
		tiles = 10
	}
	tl, err := pbsm.NewTiling(opt.World, tiles, 0)
	if err != nil {
		return nil, err
	}
	stA, stB := storage.NewMemStore(opt.PageSize), storage.NewMemStore(opt.PageSize)
	ia, bsA, err := pbsm.BuildIndex(stA, a, tl)
	if err != nil {
		return nil, err
	}
	ib, bsB, err := pbsm.BuildIndex(stB, b, tl)
	if err != nil {
		return nil, err
	}
	st.paged(stA, bsA.Wall, bsA.IO)
	st.paged(stB, bsB.Wall, bsB.IO)
	return func(s *sink, st *Stats) error {
		js, err := pbsm.Join(ia, ib, pbsm.JoinConfig{Stop: s.flag()}, s.send)
		st.joined(js.Wall, js.IO, js.Comparisons, 0, js.Results)
		return err
	}, nil
}

// rtree is the synchronized R-tree traversal join [2] over STR-bulkloaded
// trees [10].
func rtreeBuild(a, b []geom.Element, opt Options, st *Stats) (kernel, error) {
	cfg := rtree.Config{World: opt.World}
	stA, stB := storage.NewMemStore(opt.PageSize), storage.NewMemStore(opt.PageSize)
	ta, bsA, err := rtree.Bulkload(stA, a, cfg)
	if err != nil {
		return nil, err
	}
	tb, bsB, err := rtree.Bulkload(stB, b, cfg)
	if err != nil {
		return nil, err
	}
	st.paged(stA, bsA.Wall, bsA.IO)
	st.paged(stB, bsB.Wall, bsB.IO)
	return func(s *sink, st *Stats) error {
		js, err := rtree.SyncJoin(ta, tb, rtree.JoinConfig{Stop: s.flag()}, s.send)
		st.joined(js.Wall, js.IO, js.Comparisons, js.MetaComparisons, js.Results)
		return err
	}, nil
}

// gipsy is the crawling join for contrasting densities [4]: the larger input
// is indexed, the smaller is the (required) predetermined sparse guide.
func gipsyBuild(a, b []geom.Element, opt Options, st *Stats) (kernel, error) {
	sparse, dense, sparseIsA := a, b, true
	if len(a) > len(b) {
		sparse, dense, sparseIsA = b, a, false
	}
	store := storage.NewMemStore(opt.PageSize)
	idx, bs, err := gipsy.BuildIndex(store, dense, gipsy.Config{World: opt.World})
	if err != nil {
		return nil, err
	}
	st.paged(store, bs.Wall, bs.IO)
	return func(s *sink, st *Stats) error {
		js, err := gipsy.Join(sparse, idx, gipsy.JoinConfig{Stop: s.flag()}, s.oriented(sparseIsA))
		st.joined(js.Wall, js.IO, js.Comparisons, js.MetaComparisons, js.Results)
		return err
	}, nil
}

// grid is the in-memory grid hash join of [11] run directly on the element
// sets — no paged index, no modeled I/O. It hashes the smaller side and probes
// with the larger, which bounds the replicated build structure.
func gridBuild(a, b []geom.Element, _ Options, st *Stats) (kernel, error) {
	build, probe, buildIsA := a, b, true
	if len(a) > len(b) {
		build, probe, buildIsA = b, a, false
	}
	start := time.Now()
	g := grid.Build(build, grid.Config{})
	st.BuildWall = time.Since(start)
	return func(s *sink, st *Stats) error {
		emit := s.oriented(buildIsA)
		var results uint64
		start := time.Now()
		for _, q := range probe {
			if s.failed() {
				break // abort between probe rows: this loop is the kernel
			}
			g.Probe(q, func(hit geom.Element) {
				results++
				emit(hit, q)
			})
		}
		st.joined(time.Since(start), storage.Stats{}, g.Comparisons, 0, results)
		return nil
	}, nil
}

// inmem is the cache-resident in-memory fast path: both inputs assigned to
// cache-sized stripes on one dimension as float32 outward bounds, joined per
// stripe with a forward-scan sweep over those columns and an exact test on the
// source elements of what passes it, mini-join decomposition keeping every pair
// exactly once with no dedup pass (internal/engine/inmem). Pure CPU — no paged
// index, no modeled I/O. The partition reads a and b by reference for as long
// as the kernel runs; they are the caller's prepared inputs, which nothing
// else writes. A catalog-resident partition in Options.Prebuilt.Partition
// skips the partition phase.
func inmemPrebuilt(opt Options) kernel {
	if opt.Prebuilt.Partition == nil {
		return nil
	}
	return inmemKernel(opt.Prebuilt.Partition, opt)
}

func inmemBuild(a, b []geom.Element, opt Options, st *Stats) (kernel, error) {
	start := time.Now()
	p := inmem.Partition(a, b, inmem.Config{})
	st.BuildWall = time.Since(start)
	return inmemKernel(p, opt), nil
}

func inmemKernel(p *inmem.Partitioned, opt Options) kernel {
	return func(s *sink, st *Stats) error {
		js := p.Join(inmem.JoinConfig{Parallelism: opt.Parallelism, Stop: s.flag()}, s.sendIDs)
		st.joined(js.Wall, storage.Stats{}, js.Comparisons, 0, js.Results)
		st.InMem = &InMemStats{
			Stripes: js.Stripes, SplitDim: js.SplitDim, SweepDim: js.SweepDim,
			ReplicatedA: js.ReplicatedA, ReplicatedB: js.ReplicatedB,
		}
		return nil
	}
}

// naive is the O(|A|·|B|) nested loop — the trivially correct reference every
// other engine is validated against; it builds nothing. Pairs surface in scan
// order, not naive.Join's sorted order: engine results carry no ordering
// contract (SortPairs is the canonical comparison order).
func naiveBuild(a, b []geom.Element, _ Options, _ *Stats) (kernel, error) {
	return func(s *sink, st *Stats) error {
		var results uint64
		start := time.Now()
		for _, ea := range a {
			if s.failed() {
				break // abort between outer rows
			}
			for _, eb := range b {
				if ea.Box.Intersects(eb.Box) {
					results++
					s.send(ea, eb)
				}
			}
		}
		st.joined(time.Since(start), storage.Stats{}, uint64(len(a))*uint64(len(b)), 0, results)
		return nil
	}, nil
}
