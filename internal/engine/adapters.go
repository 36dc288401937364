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

func init() {
	// Registration order is the wire-visible Names() order: the paper's
	// presentation order, then the in-memory references.
	Register(transformersEngine{})
	Register(pbsmEngine{})
	Register(rtreeEngine{})
	Register(gipsyEngine{})
	Register(gridEngine{})
	Register(inmemEngine{})
	Register(naiveEngine{})
}

// transformersEngine runs the paper's adaptive join (§III–§VI): sequential,
// parallel (Options.Parallelism) and distance (Options.Distance) execution
// through one adapter, reusing prebuilt catalog indexes when supplied.
type transformersEngine struct{}

func (transformersEngine) Name() string { return Transformers }

func (transformersEngine) JoinStream(ctx context.Context, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error) {
	res := &Result{Engine: Transformers}
	var ia, ib *core.Index
	if opt.Prebuilt != nil && opt.Prebuilt.A != nil && opt.Prebuilt.B != nil {
		// Catalog fast path: the indexes exist (distance expansion
		// included), only the join runs. Options.Distance must be zero —
		// the catalog applies expansion at build time.
		if opt.Disk == (storage.DiskModel{}) {
			opt.Disk = storage.DefaultDiskModel()
		}
		ia, ib = opt.Prebuilt.A, opt.Prebuilt.B
	} else {
		var err error
		a, b, opt, err = prepare(ctx, a, b, opt)
		if err != nil {
			return nil, err
		}
		stA := storage.NewMemStore(opt.PageSize)
		stB := storage.NewMemStore(opt.PageSize)
		var bsA, bsB core.BuildStats
		ia, bsA, err = core.BuildIndex(stA, a, core.IndexConfig{World: opt.World})
		if err != nil {
			return nil, err
		}
		ib, bsB, err = core.BuildIndex(stB, b, core.IndexConfig{World: opt.World})
		if err != nil {
			return nil, err
		}
		res.Stats.BuildWall = bsA.Wall + bsB.Wall
		res.Stats.BuildIO = bsA.IO.Add(bsB.IO)
		res.Stats.IndexedPages = stA.NumPages() + stB.NumPages()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newSink(emit, true, opt)
	defer s.watch(ctx)()
	js, err := core.Join(ia, ib, core.JoinConfig{
		DisableTransforms: opt.DisableTransforms,
		TSU:               opt.TSU,
		TSO:               opt.TSO,
		FixedThresholds:   opt.FixedThresholds,
		GuideB:            opt.GuideB,
		Disk:              opt.Disk,
		CachePages:        opt.CachePages,
		Parallelism:       opt.Parallelism,
		Concurrent:        opt.Concurrent,
		Stop:              s.flag(),
	}, s.send)
	if err != nil {
		return nil, err
	}
	if err := s.finish(ctx); err != nil {
		return nil, err
	}
	res.Stats.Transformers = js
	res.Stats.JoinWall = js.Wall
	res.Stats.JoinIO = js.IO
	res.Stats.Candidates = js.Comparisons
	res.Stats.MetaComparisons = js.MetaComparisons
	res.Stats.Refinements = js.Results
	res.Stats.finish(opt.Disk)
	return res, nil
}

// pbsmEngine is the Partition Based Spatial-Merge join [3]: uniform tiles,
// round-robin partitions, multiple assignment, reference-tile dedup.
type pbsmEngine struct{}

func (pbsmEngine) Name() string { return PBSM }

func (pbsmEngine) JoinStream(ctx context.Context, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error) {
	a, b, opt, err := prepare(ctx, a, b, opt)
	if err != nil {
		return nil, err
	}
	tiles := opt.PBSMTilesPerDim
	if tiles <= 0 {
		tiles = 10
	}
	tl, err := pbsm.NewTiling(opt.World, tiles, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{Engine: PBSM}
	stA := storage.NewMemStore(opt.PageSize)
	stB := storage.NewMemStore(opt.PageSize)
	ia, bsA, err := pbsm.BuildIndex(stA, a, tl)
	if err != nil {
		return nil, err
	}
	ib, bsB, err := pbsm.BuildIndex(stB, b, tl)
	if err != nil {
		return nil, err
	}
	res.Stats.BuildWall = bsA.Wall + bsB.Wall
	res.Stats.BuildIO = bsA.IO.Add(bsB.IO)
	res.Stats.IndexedPages = stA.NumPages() + stB.NumPages()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newSink(emit, false, opt)
	defer s.watch(ctx)()
	js, err := pbsm.Join(ia, ib, pbsm.JoinConfig{Stop: s.flag()}, s.send)
	if err != nil {
		return nil, err
	}
	if err := s.finish(ctx); err != nil {
		return nil, err
	}
	res.Stats.JoinWall = js.Wall
	res.Stats.JoinIO = js.IO
	res.Stats.Candidates = js.Comparisons
	res.Stats.Refinements = js.Results
	res.Stats.finish(opt.Disk)
	return res, nil
}

// rtreeEngine is the synchronized R-tree traversal join [2] over
// STR-bulkloaded trees [10].
type rtreeEngine struct{}

func (rtreeEngine) Name() string { return RTree }

func (rtreeEngine) JoinStream(ctx context.Context, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error) {
	a, b, opt, err := prepare(ctx, a, b, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Engine: RTree}
	stA := storage.NewMemStore(opt.PageSize)
	stB := storage.NewMemStore(opt.PageSize)
	ta, bsA, err := rtree.Bulkload(stA, a, rtree.Config{Fanout: opt.RTreeFanout, World: opt.World})
	if err != nil {
		return nil, err
	}
	tb, bsB, err := rtree.Bulkload(stB, b, rtree.Config{Fanout: opt.RTreeFanout, World: opt.World})
	if err != nil {
		return nil, err
	}
	res.Stats.BuildWall = bsA.Wall + bsB.Wall
	res.Stats.BuildIO = bsA.IO.Add(bsB.IO)
	res.Stats.IndexedPages = stA.NumPages() + stB.NumPages()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newSink(emit, false, opt)
	defer s.watch(ctx)()
	js, err := rtree.SyncJoin(ta, tb, rtree.JoinConfig{CachePages: opt.CachePages, Stop: s.flag()}, s.send)
	if err != nil {
		return nil, err
	}
	if err := s.finish(ctx); err != nil {
		return nil, err
	}
	res.Stats.JoinWall = js.Wall
	res.Stats.JoinIO = js.IO
	res.Stats.Candidates = js.Comparisons
	res.Stats.MetaComparisons = js.MetaComparisons
	res.Stats.Refinements = js.Results
	res.Stats.finish(opt.Disk)
	return res, nil
}

// gipsyEngine is the crawling join for contrasting densities [4]. The
// smaller input is the (required) predetermined sparse guide; result
// orientation is restored to the caller's A/B.
type gipsyEngine struct{}

func (gipsyEngine) Name() string { return GIPSY }

func (gipsyEngine) JoinStream(ctx context.Context, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error) {
	a, b, opt, err := prepare(ctx, a, b, opt)
	if err != nil {
		return nil, err
	}
	sparse, dense := a, b
	sparseIsA := true
	if len(a) > len(b) {
		sparse, dense = b, a
		sparseIsA = false
	}
	res := &Result{Engine: GIPSY}
	st := storage.NewMemStore(opt.PageSize)
	idx, bs, err := gipsy.BuildIndex(st, dense, gipsy.Config{World: opt.World})
	if err != nil {
		return nil, err
	}
	res.Stats.BuildWall = bs.Wall
	res.Stats.BuildIO = bs.IO
	res.Stats.IndexedPages = st.NumPages()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newSink(emit, false, opt)
	defer s.watch(ctx)()
	js, err := gipsy.Join(sparse, idx, gipsy.JoinConfig{CachePages: opt.CachePages, Stop: s.flag()}, func(sp, d geom.Element) {
		if sparseIsA {
			s.send(sp, d)
		} else {
			s.send(d, sp)
		}
	})
	if err != nil {
		return nil, err
	}
	if err := s.finish(ctx); err != nil {
		return nil, err
	}
	res.Stats.JoinWall = js.Wall
	res.Stats.JoinIO = js.IO
	res.Stats.Candidates = js.Comparisons
	res.Stats.MetaComparisons = js.MetaComparisons
	res.Stats.Refinements = js.Results
	res.Stats.finish(opt.Disk)
	return res, nil
}

// gridEngine is the in-memory grid hash join of [11] run directly on the
// element sets — no paged index, no modeled I/O. It hashes the smaller side
// and probes with the larger, which bounds the replicated build structure.
type gridEngine struct{}

func (gridEngine) Name() string { return Grid }

func (gridEngine) JoinStream(ctx context.Context, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error) {
	a, b, opt, err := prepare(ctx, a, b, opt)
	if err != nil {
		return nil, err
	}
	build, probe := a, b
	buildIsA := true
	if len(a) > len(b) {
		build, probe = b, a
		buildIsA = false
	}
	res := &Result{Engine: Grid}
	start := time.Now()
	g := grid.Build(build, grid.Config{})
	res.Stats.BuildWall = time.Since(start)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newSink(emit, false, opt)
	defer s.watch(ctx)()
	start = time.Now()
	for _, q := range probe {
		if s.failed() {
			break // abort between probe rows: the adapter owns this loop
		}
		g.Probe(q, func(hit geom.Element) {
			res.Stats.Refinements++
			if buildIsA {
				s.send(hit, q)
			} else {
				s.send(q, hit)
			}
		})
	}
	res.Stats.JoinWall = time.Since(start)
	if err := s.finish(ctx); err != nil {
		return nil, err
	}
	res.Stats.Candidates = g.Comparisons
	res.Stats.finish(opt.Disk)
	return res, nil
}

// inmemEngine is the cache-resident in-memory fast path: struct-of-arrays
// MBR buffers partitioned into cache-sized stripes on one dimension, joined
// per stripe with a forward-scan sweep, mini-join decomposition keeping
// every pair exactly once with no dedup pass (internal/engine/inmem). Pure
// CPU — no paged index, no modeled I/O — and the only engine besides
// transformers that honors Options.Parallelism. A catalog-resident partition
// passed as Options.Prebuilt.Partition skips the copy and partition phase:
// only the kernel runs, and BuildWall stays zero.
type inmemEngine struct{}

func (inmemEngine) Name() string { return InMem }

func (inmemEngine) JoinStream(ctx context.Context, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error) {
	res := &Result{Engine: InMem}
	var p *inmem.Partitioned
	if opt.Prebuilt != nil && opt.Prebuilt.Partition != nil {
		p = opt.Prebuilt.Partition
		if opt.Disk == (storage.DiskModel{}) {
			opt.Disk = storage.DefaultDiskModel()
		}
	} else {
		var err error
		a, b, opt, err = prepare(ctx, a, b, opt)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		p = inmem.Partition(a, b, inmem.Config{})
		res.Stats.BuildWall = time.Since(start)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := newSink(emit, true, opt)
	defer s.watch(ctx)()
	js := p.Join(inmem.JoinConfig{Parallelism: opt.Parallelism, Stop: s.flag()}, s.sendIDs)
	if err := s.finish(ctx); err != nil {
		return nil, err
	}
	res.Stats.JoinWall = js.Wall
	res.Stats.Candidates = js.Comparisons
	res.Stats.Refinements = js.Results
	res.Stats.InMem = &InMemStats{
		Stripes: js.Stripes, SplitDim: js.SplitDim, SweepDim: js.SweepDim,
		ReplicatedA: js.ReplicatedA, ReplicatedB: js.ReplicatedB,
	}
	res.Stats.finish(opt.Disk)
	return res, nil
}

// naiveEngine is the O(|A|·|B|) nested loop — the trivially correct
// reference every other engine is validated against. Pairs surface in scan
// order, not naive.Join's sorted order: engine results carry no ordering
// contract (SortPairs is the canonical comparison order).
type naiveEngine struct{}

func (naiveEngine) Name() string { return Naive }

func (naiveEngine) JoinStream(ctx context.Context, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error) {
	a, b, opt, err := prepare(ctx, a, b, opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Engine: Naive}
	s := newSink(emit, false, opt)
	defer s.watch(ctx)()
	start := time.Now()
	for _, ea := range a {
		if s.failed() {
			break // abort between outer rows
		}
		for _, eb := range b {
			if ea.Box.Intersects(eb.Box) {
				res.Stats.Refinements++
				s.send(ea, eb)
			}
		}
	}
	res.Stats.JoinWall = time.Since(start)
	if err := s.finish(ctx); err != nil {
		return nil, err
	}
	res.Stats.Candidates = uint64(len(a)) * uint64(len(b))
	res.Stats.finish(opt.Disk)
	return res, nil
}
