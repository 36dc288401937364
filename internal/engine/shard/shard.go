// Package shard is the sharded execution tier: a meta-engine that splits the
// joined space into K tiles along Hilbert-order boundaries, runs any
// registered inner engine per tile on a worker pool, and merges the per-tile
// results with reference-point boundary dedup so every pair is reported
// exactly once.
//
// The cut is density-balanced: tile boundaries are equal-weight cuts of the
// Hilbert-cell histogram of both datasets, so a clustered
// distribution — the paper's whole subject — is split across tiles instead
// of landing in one hot shard. Because a Hilbert range is a contiguous run
// of space, each tile is a union of grid cells with good locality, and an
// MBR is replicated only to the tiles whose cells it overlaps.
//
// Correctness does not depend on the cut: a candidate pair's reference point
// (the low corner of the two boxes' intersection) falls in exactly one grid
// cell, hence exactly one tile, and both elements of the pair are always
// replicated to that tile — so filtering each tile's output to the pairs
// whose reference point it owns yields every pair exactly once, for any K
// and any worker count. The classic reference-point method (PBSM [3], SOLAR)
// lifted from uniform grids to Hilbert-balanced tiles.
//
// Element IDs play no part in it: a tile's inner engine joins copies labelled
// by their position in the tile, and dedup maps a result's positions back to
// the caller's elements — boxes for the reference point, IDs for the answer —
// so datasets whose IDs repeat join like any other.
package shard

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/internal/geom"
	"repro/internal/hilbert"
	"repro/internal/obs"
)

// MaxTiles caps the configured tile count (Options.ShardTiles): far above any
// useful fan-out, low enough that per-tile bookkeeping stays trivial. Larger
// pins are clamped to it.
const MaxTiles = 256

// targetPerTile is the combined per-tile cardinality the automatic tile count
// aims for: small enough that per-tile index builds stay cheap and the worker
// pool has slack to balance, large enough that partitioning overhead and
// boundary replication stay a small fraction of the join.
const targetPerTile = 24_000

// maxAutoTiles bounds the automatic tile count.
const maxAutoTiles = 64

// autoTiles selects the tile count K when the caller pins none, from the
// planner's cheap statistics: cardinality sets the baseline (one tile per ~24K
// combined elements), and skewed data doubles it — smaller tiles give the
// density-balanced cut the resolution to split hot clusters across workers
// instead of handing one worker the whole cluster. Returns at least 1 (inputs
// too small to shard).
func autoTiles(a, b planner.DatasetStats) int {
	k := (a.Count + b.Count) / targetPerTile
	if k < 1 {
		return 1
	}
	if math.Max(a.SkewCV, b.SkewCV) > 2 {
		k *= 2
	}
	return min(k, maxAutoTiles)
}

// gridOrder is the Hilbert-curve order of the tiling grid: order 5 gives
// 32³ = 32768 cells, matching the upper resolution of planner.Analyze's
// density grid while keeping the weight array small enough to build per join.
const gridOrder = 5

// hilbertWeights is the spatial form of planner.Analyze's density grid: the
// element-center count of every cell of the order-`order` Hilbert grid over
// world, indexed by Hilbert value. Contiguous ranges of this array are
// contiguous Hilbert-order runs of space, so equal-weight cuts of it are
// density-balanced tile boundaries that keep a clustered dataset from
// producing one hot shard. Centers outside world are clamped to its boundary
// cells.
func hilbertWeights(elems []geom.Element, world geom.Box, order int) []uint32 {
	m := hilbert.NewMapper(world, order)
	w := make([]uint32, uint64(1)<<uint(3*order))
	for _, e := range elems {
		w[m.Value(e.Box.Center())]++
	}
	return w
}

// maxCoverCells bounds the per-element cell walk during assignment: an MBR
// covering more analysis cells than this (a cross-shard giant) is replicated
// to every tile outright instead of enumerating its cells. Reference-point
// dedup makes over-replication harmless; this only caps assignment cost.
const maxCoverCells = 4096

func init() {
	// The serving-relevant inner engines: the robust adaptive join, the
	// in-memory hash join, and the cache-resident stripe join.
	// engine.Register accepts more via New.
	engine.Register(New(engine.Transformers))
	engine.Register(New(engine.Grid))
	engine.Register(New(engine.InMem))
}

// Engine is the sharded meta-engine around one registered inner engine.
type Engine struct {
	inner string
}

// New returns the sharded meta-engine for the named inner engine, named
// "shard-<inner>". The inner engine is resolved per join, so registration
// order does not matter.
func New(inner string) *Engine { return &Engine{inner: inner} }

// Name implements engine.Joiner.
func (e *Engine) Name() string { return engine.ShardPrefix + e.inner }

// Inner returns the name of the engine that runs per tile.
func (e *Engine) Inner() string { return e.inner }

// StreamBuffer is the per-worker bound on pairs parked between a tile's
// inner engine and the caller's emit during a streaming fan-out: the merged
// output channel holds at most workers×StreamBuffer pairs, so engine-side
// buffering is a function of the worker budget, never of the result size. A
// slow consumer therefore back-pressures the tiles instead of forcing any of
// them to materialize its output.
const StreamBuffer = 256

// JoinStream implements engine.Joiner: partition, fan out, and merge
// the per-tile streams through the reference-point dedup filter on the fly.
func (e *Engine) JoinStream(ctx context.Context, a, b []geom.Element, opt engine.Options, emit engine.EmitFunc) (*engine.Result, error) {
	if _, err := engine.Get(e.inner); err != nil {
		return nil, fmt.Errorf("shard: inner %w", err)
	}
	// engine.Prepare applies the §VIII enlarged-objects reduction before
	// partitioning, so tiling, replication and reference points all see the
	// grown boxes; the inner engines then run a plain intersection join on
	// them (Distance zeroed below).
	a, b, opt, err := engine.Prepare(ctx, a, b, opt)
	if err != nil {
		return nil, err
	}
	opt.Distance = 0
	name := e.Name()
	if len(a) == 0 || len(b) == 0 {
		res := &engine.Result{Engine: name}
		// Nothing to fan out: one nominal tile, one worker.
		res.Stats.Shard = &engine.ShardStats{Inner: e.inner, Tiles: 1, Workers: 1}
		res.Stats.Finish()
		return res, nil
	}

	k := opt.ShardTiles
	if k <= 0 {
		k = autoTiles(planner.Analyze(a), planner.Analyze(b))
	}
	if k > MaxTiles {
		k = MaxTiles
	}
	if k <= 1 {
		return e.single(ctx, a, b, opt, emit)
	}
	return e.fanout(ctx, a, b, opt, k, emit)
}

// single runs the inner engine directly (K=1): no replication, no dedup —
// the degenerate tiling every sharded result is provably identical to. The
// caller's emit is handed straight to the inner engine's stream.
func (e *Engine) single(ctx context.Context, a, b []geom.Element, opt engine.Options, emit engine.EmitFunc) (*engine.Result, error) {
	innerOpt := e.innerOptions(opt)
	// With one tile there is no pool to feed; hand the whole worker budget
	// to the inner engine instead of pinning it single-threaded.
	innerOpt.Parallelism = opt.Parallelism
	res, err := engine.RunStream(ctx, e.inner, a, b, innerOpt, emit)
	if err != nil {
		return nil, err
	}
	workers := opt.Parallelism
	if workers < 1 {
		workers = 1
	}
	res.Engine = e.Name()
	res.Stats.Shard = &engine.ShardStats{
		Inner: e.inner, Tiles: 1, TilesRun: 1, Workers: workers, UtilizationPct: 100,
		// Same quantities as a fan-out tile record: measured in-memory
		// execution (inner build + join) and the tile store's modeled disk
		// time, so K=1 and K>1 records stay comparable.
		PerTile: []engine.TileStats{{
			ElementsA:   len(a),
			ElementsB:   len(b),
			Pairs:       res.Stats.Refinements,
			WallMS:      float64(res.Stats.BuildWall+res.Stats.JoinWall) / float64(time.Millisecond),
			ModeledIOMS: float64(res.Stats.BuildIOTime+res.Stats.JoinIOTime) / float64(time.Millisecond),
		}},
	}
	return res, nil
}

// innerOptions derives the per-tile option set: same pricing and sizing, the
// whole world (PBSM-style inners need it to cover both tile subsets) and one
// thread per tile (the pool provides the parallelism).
func (e *Engine) innerOptions(opt engine.Options) engine.Options {
	inner := opt
	inner.World = opt.World
	inner.Distance = 0
	inner.Parallelism = 1
	inner.ShardTiles = 0
	inner.Prebuilt = nil
	return inner
}

// tiling is one density-balanced Hilbert cut of the world.
type tiling struct {
	mapper *hilbert.Mapper
	order  int
	// cuts[i] .. cuts[i+1] is tile i's half-open Hilbert-value range;
	// len(cuts) == K+1, cuts[0] == 0, cuts[K] == total cells.
	cuts []uint64
	// cellTile maps every grid cell's Hilbert value to its tile — the
	// assignment walk and the per-pair dedup filter both sit on hot paths,
	// so tile lookup must be an array load, not a search over cuts.
	cellTile []uint16
}

// newTiling places K-1 boundaries at equal-weight positions of the combined
// Hilbert-cell histogram of both datasets. Tiles beyond the data's Hilbert
// span come out empty — harmless, they are skipped at execution.
func newTiling(a, b []geom.Element, world geom.Box, k int) *tiling {
	order := gridOrder
	w := hilbertWeights(a, world, order)
	for h, c := range hilbertWeights(b, world, order) {
		w[h] += c
	}
	var total uint64
	for _, c := range w {
		total += uint64(c)
	}
	cells := uint64(len(w))
	cuts := make([]uint64, k+1)
	cuts[k] = cells
	if total == 0 {
		// No centers (degenerate): equal cell ranges.
		for i := 1; i < k; i++ {
			cuts[i] = cells * uint64(i) / uint64(k)
		}
		return finishTiling(world, order, cuts)
	}
	var acc uint64
	next := 1
	for h := uint64(0); h < cells && next < k; h++ {
		acc += uint64(w[h])
		for next < k && acc*uint64(k) >= total*uint64(next) {
			cuts[next] = h + 1
			next++
		}
	}
	for ; next < k; next++ {
		cuts[next] = cells
	}
	return finishTiling(world, order, cuts)
}

// finishTiling materializes the cell-to-tile table from the cuts.
func finishTiling(world geom.Box, order int, cuts []uint64) *tiling {
	t := &tiling{
		mapper:   hilbert.NewMapper(world, order),
		order:    order,
		cuts:     cuts,
		cellTile: make([]uint16, cuts[len(cuts)-1]),
	}
	for ti := 0; ti < len(cuts)-1; ti++ {
		for h := cuts[ti]; h < cuts[ti+1]; h++ {
			t.cellTile[h] = uint16(ti)
		}
	}
	return t
}

// tiles returns K.
func (t *tiling) tiles() int { return len(t.cuts) - 1 }

// tileOf maps a Hilbert value to its tile index.
func (t *tiling) tileOf(h uint64) int { return int(t.cellTile[h]) }

// tileOfPoint maps a point to the tile owning its grid cell.
func (t *tiling) tileOfPoint(p geom.Point) int {
	return t.tileOf(t.mapper.Value(p))
}

// assign distributes elements to every tile whose cells their box overlaps,
// using a generation-stamped scratch array to dedupe tile hits per element.
// A tile receives a copy whose ID is its position in the tile — the inner
// engine owns that slice and may reorder it (core.BuildIndex does) — and src
// keeps, by that position, which of elems it is. Returns both and the number
// of extra copies.
func (t *tiling) assign(elems []geom.Element) (tiles [][]geom.Element, src [][]int32, replicated int) {
	k := t.tiles()
	tiles = make([][]geom.Element, k)
	src = make([][]int32, k)
	place := func(ti, i int) {
		tiles[ti] = append(tiles[ti], geom.Element{ID: uint64(len(tiles[ti])), Box: elems[i].Box})
		src[ti] = append(src[ti], int32(i))
	}
	stamp := make([]int, k)
	for i := range stamp {
		stamp[i] = -1
	}
	for gen, e := range elems {
		lx, ly, lz := t.mapper.Cell(e.Box.Lo)
		hx, hy, hz := t.mapper.Cell(e.Box.Hi)
		span := uint64(hx-lx+1) * uint64(hy-ly+1) * uint64(hz-lz+1)
		if span > maxCoverCells {
			// Cross-shard giant: replicate everywhere rather than walk
			// thousands of cells. Dedup keeps the result exact.
			for ti := 0; ti < k; ti++ {
				place(ti, gen)
			}
			replicated += k - 1
			continue
		}
		n := 0
		for x := lx; x <= hx; x++ {
			for y := ly; y <= hy; y++ {
				for z := lz; z <= hz; z++ {
					ti := t.tileOf(hilbert.Encode(t.order, x, y, z))
					if stamp[ti] != gen {
						stamp[ti] = gen
						place(ti, gen)
						n++
					}
				}
			}
		}
		replicated += n - 1
	}
	return tiles, src, replicated
}

// fanout is the K>1 path: cut, assign, run tiles on the pool, and merge
// their streams. Each worker filters its tile's emissions through the
// reference-point dedup test as they surface and forwards the survivors into
// a bounded channel (workers×StreamBuffer); the caller's emit drains that
// channel, so no tile ever materializes its output and a stalled consumer
// stalls the tiles instead of growing a buffer.
func (e *Engine) fanout(ctx context.Context, a, b []geom.Element, opt engine.Options, k int, emit engine.EmitFunc) (*engine.Result, error) {
	// One traced check up front: when false, the per-tile loop below does no
	// span work at all, so the untraced fan-out is unchanged.
	traced := obs.Enabled(ctx)

	_, partSpan := obs.Start(ctx, "shard-partition")
	partStart := time.Now()
	tl := newTiling(a, b, opt.World, k)
	tilesA, srcA, replA := tl.assign(a)
	tilesB, srcB, replB := tl.assign(b)
	partWall := time.Since(partStart)
	partSpan.End()
	partSpan.Add("tiles", int64(k))
	partSpan.Add("replicated", int64(replA+replB))

	workers := opt.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	runnable := 0
	for i := 0; i < k; i++ {
		if len(tilesA[i]) > 0 && len(tilesB[i]) > 0 {
			runnable++
		}
	}
	if workers > runnable && runnable > 0 {
		workers = runnable
	}
	if workers < 1 {
		workers = 1
	}

	type tileResult struct {
		res     *engine.Result
		kept    uint64
		dropped uint64
		wall    time.Duration
	}
	results := make([]tileResult, k)
	innerOpt := e.innerOptions(opt)

	var (
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
	)
	queue := make(chan int)
	out := make(chan geom.Pair, workers*StreamBuffer)
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range queue {
				start := time.Now()
				var kept, dropped uint64
				tctx := cctx
				var tileSpan *obs.Span
				if traced {
					tctx, tileSpan = obs.Start(cctx, "tile-"+strconv.Itoa(ti))
				}
				res, err := engine.RunStream(tctx, e.inner, tilesA[ti], tilesB[ti], innerOpt,
					func(p geom.Pair) error {
						// Reference-point dedup on the fly: forward exactly
						// the pairs whose intersection's low corner falls in
						// this tile, under the caller's IDs.
						ea, eb := a[srcA[ti][p.A]], b[srcB[ti][p.B]]
						if tl.tileOfPoint(refPoint(ea.Box, eb.Box)) != ti {
							dropped++
							return nil
						}
						select {
						case out <- geom.Pair{A: ea.ID, B: eb.ID}:
							kept++
							return nil
						case <-cctx.Done():
							return cctx.Err()
						}
					})
				tileSpan.End()
				tileSpan.Add("pairs", int64(kept))
				tileSpan.Add("dedup_dropped", int64(dropped))
				if err != nil {
					errOnce.Do(func() { runErr = err; cancel() })
					return
				}
				results[ti] = tileResult{res: res, kept: kept, dropped: dropped, wall: time.Since(start)}
			}
		}()
	}
	phaseStart := time.Now()
	go func() { // feeder: the merge loop below owns this goroutine's old seat
		defer close(queue)
		for ti := 0; ti < k; ti++ {
			if len(tilesA[ti]) == 0 || len(tilesB[ti]) == 0 {
				continue // no pairs can originate here
			}
			select {
			case queue <- ti:
			case <-cctx.Done():
				return
			}
		}
	}()
	go func() { wg.Wait(); close(out) }()

	// Merge: drain the bounded channel into the caller's emit. On an emit
	// error the fan-out is canceled but the channel is still drained (pairs
	// discarded) so no worker stays blocked on a send.
	var emitErr error
	for p := range out {
		if emitErr != nil {
			continue
		}
		if err := emit(p); err != nil {
			emitErr = err
			cancel()
		}
	}
	phaseWall := time.Since(phaseStart)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if emitErr != nil {
		return nil, emitErr
	}
	if runErr != nil {
		return nil, runErr
	}

	res := &engine.Result{Engine: e.Name()}
	st := &res.Stats
	shard := &engine.ShardStats{
		Inner: e.inner, Tiles: k, Workers: workers,
		ReplicatedA: replA, ReplicatedB: replB,
		PerTile: make([]engine.TileStats, 0, k),
	}
	var busy time.Duration
	var unique uint64
	tileIO := make([]time.Duration, 0, k) // per-tile modeled disk time
	for ti := 0; ti < k; ti++ {
		ts := engine.TileStats{Tile: ti, ElementsA: len(tilesA[ti]), ElementsB: len(tilesB[ti])}
		if r := results[ti].res; r != nil {
			shard.TilesRun++
			ts.Pairs = results[ti].kept
			ts.Dropped = results[ti].dropped
			ts.WallMS = float64(results[ti].wall) / float64(time.Millisecond)
			io := r.Stats.BuildIOTime + r.Stats.JoinIOTime
			ts.ModeledIOMS = float64(io) / float64(time.Millisecond)
			tileIO = append(tileIO, io)
			busy += results[ti].wall
			unique += ts.Pairs
			shard.DedupDropped += ts.Dropped
			// Inner builds and their I/O are part of tile execution, not a
			// separate phase: raw counters are summed (PagesRead stays the
			// true total), wall time is already inside phaseWall.
			st.IndexedPages += r.Stats.IndexedPages
			st.JoinIO = st.JoinIO.Add(r.Stats.BuildIO).Add(r.Stats.JoinIO)
			st.Candidates += r.Stats.Candidates
			st.MetaComparisons += r.Stats.MetaComparisons
		}
		shard.PerTile = append(shard.PerTile, ts)
	}
	if phaseWall > 0 && workers > 0 {
		shard.UtilizationPct = 100 * float64(busy) / (float64(workers) * float64(phaseWall))
		if shard.UtilizationPct > 100 {
			shard.UtilizationPct = 100
		}
	}
	// The partitioning pass is shard's own build phase (pure CPU, no index
	// pages of its own).
	st.BuildWall = partWall
	st.BuildTotal = partWall
	st.JoinWall = phaseWall
	st.Refinements = unique
	st.Shard = shard
	// Each tile joins against its own store: modeled disk time is the
	// worker-pool makespan of per-tile modeled I/O (greedy longest-first
	// assignment), not the serial sum — the modeled counterpart of the
	// measured phase wall.
	st.JoinIOTime = makespan(tileIO, workers)
	st.JoinTotal = st.JoinWall + st.JoinIOTime
	st.PagesRead = st.JoinIO.Reads
	return res, nil
}

// makespan is the completion time of scheduling the given task durations on
// n parallel workers, longest task first onto the least-loaded worker — the
// deterministic model of the pool the tiles actually ran on.
func makespan(tasks []time.Duration, n int) time.Duration {
	if len(tasks) == 0 {
		return 0
	}
	if n < 1 {
		n = 1
	}
	sorted := append([]time.Duration(nil), tasks...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	load := make([]time.Duration, n)
	for _, d := range sorted {
		min := 0
		for w := 1; w < n; w++ {
			if load[w] < load[min] {
				min = w
			}
		}
		load[min] += d
	}
	max := load[0]
	for _, l := range load[1:] {
		if l > max {
			max = l
		}
	}
	return max
}

// refPoint is the low corner of the intersection of two (intersecting)
// boxes — the unique point that decides which tile reports the pair.
func refPoint(a, b geom.Box) geom.Point {
	var p geom.Point
	for d := 0; d < geom.Dims; d++ {
		if a.Lo[d] > b.Lo[d] {
			p[d] = a.Lo[d]
		} else {
			p[d] = b.Lo[d]
		}
	}
	return p
}
