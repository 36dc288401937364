// Package engine unifies every spatial join implementation in this
// repository behind one interface. The paper's evaluation (§VII) compares
// TRANSFORMERS against PBSM, synchronized R-tree traversal and GIPSY; this
// package turns those reproductions — previously bench-only code with five
// incompatible call signatures — into interchangeable execution engines that
// the serving layer, the benchmark harness and the CLI tools all drive
// through a single registry.
//
// An engine takes two element sets and produces the intersecting (or
// within-distance) ID pairs plus a uniform Stats record: pages read,
// candidate tests, refinements (pairs surviving the MBB filter), and the
// wall/modeled-I/O split the paper reports. The planner subpackage picks an
// engine per request from cheap dataset statistics, with TRANSFORMERS as the
// robust fallback — the serving counterpart of the paper's thesis that no
// fixed layout wins everywhere.
package engine

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine/inmem"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/storage"
)

// Options parameterizes one engine execution. The zero value is a valid
// intersection join at default sizing; engines ignore the knobs that do not
// apply to them.
type Options struct {
	// PageSize is the disk page size of any index the engine builds; 8KB
	// when zero (§VII-A).
	PageSize int
	// World bounds space partitioning; the union of the dataset MBBs when
	// zero. PBSM requires it to cover both datasets.
	World geom.Box
	// Distance > 0 runs the distance join of §VIII: both inputs are copied
	// with every box grown by Distance/2 per side before the join, so the
	// engine reports exactly the pairs within Chebyshev distance Distance.
	Distance float64
	// Parallelism sets the worker count of the engines that run in parallel
	// (transformers, inmem and the sharded forms); others run single-threaded
	// regardless.
	Parallelism int
	// Concurrent is ignored: every engine that joins prebuilt indexes reads
	// them through private reader views, so they may always be shared with
	// other goroutines. It stays declared for callers that still set it.
	Concurrent bool
	// DiscardPairs skips pair collection (benchmarks that only need the
	// counters).
	DiscardPairs bool

	// TRANSFORMERS-specific knobs (forwarded to core.JoinConfig).
	DisableTransforms bool
	TSU, TSO          float64
	FixedThresholds   bool

	// PBSMTilesPerDim sets PBSM's tile grid resolution; 10 when zero.
	PBSMTilesPerDim int

	// ShardTiles sets the tile count K of sharded meta-engines
	// ("shard-<inner>"), clamped to shard.MaxTiles; 0 lets the engine pick K
	// from the datasets' statistics. Other engines ignore it.
	ShardTiles int

	// Prebuilt supplies what the serving catalog built once and reuses
	// across joins: TRANSFORMERS indexes for the transformers engine, a
	// stripe partition for the inmem engine. Each honors the field it
	// understands and then ignores the raw element inputs entirely (nil by
	// design); an engine handed nothing it understands builds as usual.
	Prebuilt *Prebuilt
}

// Prebuilt carries catalog-owned structures into a join so the engine skips
// its build phase. Distance expansion must already be applied to them (the
// catalog hands over index views grown by half the distance, and keys
// partitions by it), so Options.Distance must be zero.
type Prebuilt struct {
	// A, B are the built TRANSFORMERS indexes of the two inputs.
	A, B *core.Index
	// Partition is the stripe partition of the input pair (inmem engine).
	Partition *inmem.Partitioned
}

// Stats is the uniform per-run cost record every engine reports: the paper's
// join-phase metrics (wall time, modeled I/O, intersection tests) plus the
// indexing phase and the filter-step counters.
type Stats struct {
	// Indexing phase (zero for in-memory engines and prebuilt runs).
	BuildWall    time.Duration `json:"build_wall_ns"`
	BuildIO      storage.Stats `json:"build_io"`
	BuildIOTime  time.Duration `json:"build_io_ns"`    // modeled
	BuildTotal   time.Duration `json:"build_total_ns"` // BuildWall + BuildIOTime
	IndexedPages int           `json:"indexed_pages"`

	// Join phase.
	JoinWall   time.Duration `json:"join_wall_ns"` // in-memory time
	JoinIO     storage.Stats `json:"join_io"`
	JoinIOTime time.Duration `json:"join_io_ns"` // modeled
	JoinTotal  time.Duration `json:"join_total_ns"`

	// PagesRead is the number of pages the join phase read (cache hits
	// excluded) — JoinIO.Reads, surfaced as a first-class counter.
	PagesRead uint64 `json:"pages_read"`
	// Candidates counts element-element MBB intersection tests performed
	// by the filter step (the paper's "#intersection tests").
	Candidates uint64 `json:"candidates"`
	// MetaComparisons counts descriptor/node MBB tests steering the
	// execution (walks, crawls, tree traversal).
	MetaComparisons uint64 `json:"meta_comparisons"`
	// Refinements counts pairs surviving the MBB filter — the output of
	// the filtering step and the workload a refinement step would receive.
	Refinements uint64 `json:"refinements"`

	// Transformers carries the full adaptive-join counter set when the
	// transformers engine ran (zero value otherwise).
	Transformers core.JoinStats `json:"-"`

	// Shard carries the fan-out record when a sharded meta-engine ran
	// (nil otherwise).
	Shard *ShardStats `json:"shard,omitempty"`

	// InMem carries the stripe-partition record when the in-memory engine
	// ran (nil otherwise).
	InMem *InMemStats `json:"inmem,omitempty"`
}

// InMemStats is the per-execution record of the in-memory stripe-partition
// engine: how the space was cut and what the cut cost in boundary
// replication. It lives here (not in internal/engine/inmem) for the same
// reason ShardStats does — Result.Stats, the serving layer and the bench
// JSON carry it without importing the kernel.
type InMemStats struct {
	// Stripes is the effective stripe count after quantile-cut dedup.
	Stripes int `json:"stripes"`
	// SplitDim is the striped dimension, SweepDim the plane-sweep one.
	SplitDim int `json:"split_dim"`
	SweepDim int `json:"sweep_dim"`
	// ReplicatedA/ReplicatedB count the extra assignments made because a
	// box's split-dimension interval crosses stripe boundaries.
	ReplicatedA int `json:"replicated_a"`
	ReplicatedB int `json:"replicated_b"`
}

// ShardStats is the per-execution record of a sharded meta-engine: how the
// space was cut, how much boundary replication the cut cost, and what the
// reference-point dedup dropped. It lives in the engine package (not the
// shard package) so Result.Stats can carry it without importing the
// meta-engine.
type ShardStats struct {
	// Inner is the engine that ran per tile.
	Inner string `json:"inner"`
	// Tiles is the configured tile count K; TilesRun counts tiles that held
	// elements of both datasets and actually executed the inner engine.
	Tiles    int `json:"tiles"`
	TilesRun int `json:"tiles_run"`
	// Workers is the worker-pool size the tiles ran on.
	Workers int `json:"workers"`
	// ReplicatedA/ReplicatedB count extra element copies created because an
	// MBR straddles tile borders (total assignments minus dataset size).
	ReplicatedA int `json:"replicated_a"`
	ReplicatedB int `json:"replicated_b"`
	// DedupDropped counts candidate pairs discarded by reference-point
	// dedup — pairs found by a tile that does not own the pair's reference
	// point. Total inner pairs = unique results + DedupDropped.
	DedupDropped uint64 `json:"dedup_dropped"`
	// UtilizationPct is worker-pool utilization over the fan-out phase:
	// sum of per-tile busy time / (Workers × phase wall time), in percent.
	UtilizationPct float64 `json:"worker_utilization_pct"`
	// PerTile is the measured-cost feedback per tile, in tile order.
	PerTile []TileStats `json:"per_tile,omitempty"`
}

// TileStats records one tile's measured execution — the per-tile feedback the
// planner's fan-out pricing is calibrated against.
type TileStats struct {
	Tile      int `json:"tile"`
	ElementsA int `json:"elements_a"`
	ElementsB int `json:"elements_b"`
	// Pairs is the unique pairs this tile reported (it owns their reference
	// points); Dropped is the boundary duplicates it discarded.
	Pairs   uint64 `json:"pairs"`
	Dropped uint64 `json:"dropped"`
	// WallMS is the tile's measured in-memory execution (inner build +
	// join); ModeledIOMS is its modeled disk time on the tile's own store.
	// Together they are the measured cost the planner's fan-out pricing is
	// calibrated against.
	WallMS      float64 `json:"wall_ms"`
	ModeledIOMS float64 `json:"modeled_io_ms"`
}

// paged books one paged index build: its wall time, its I/O, and the pages
// the index occupies on its store.
func (s *Stats) paged(st storage.Store, wall time.Duration, io storage.Stats) {
	s.BuildWall += wall
	s.BuildIO = s.BuildIO.Add(io)
	s.IndexedPages += st.NumPages()
}

// joined books a kernel's join phase.
func (s *Stats) joined(wall time.Duration, io storage.Stats, candidates, meta, results uint64) {
	s.JoinWall, s.JoinIO = wall, io
	s.Candidates, s.MetaComparisons, s.Refinements = candidates, meta, results
}

// Finish derives the modeled-I/O and total fields from the raw counters,
// pricing I/O on the paper's disk (storage.DefaultDiskModel). Every built-in
// ends with it; it is exported for engines outside this package.
func (s *Stats) Finish() {
	disk := storage.DefaultDiskModel()
	s.BuildIOTime = disk.IOTime(s.BuildIO)
	s.BuildTotal = s.BuildWall + s.BuildIOTime
	s.JoinIOTime = disk.IOTime(s.JoinIO)
	s.JoinTotal = s.JoinWall + s.JoinIOTime
	s.PagesRead = s.JoinIO.Reads
}

// Result is the outcome of one engine execution.
type Result struct {
	// Engine is the name of the engine that ran.
	Engine string
	// Pairs lists the joined ID pairs, A always from the first input
	// (nil with Options.DiscardPairs).
	Pairs []geom.Pair
	// Stats is the uniform cost record.
	Stats Stats
}

// Joiner is one spatial join implementation. Pairs leave an engine one way:
// through emit, as they are found, so a skewed join whose output approaches
// |A|·|B| runs in memory bounded by the engine's working state, not its
// result size. Inputs may be reordered in place by partitioning engines — pass
// copies if the caller retains them; an empty input is a valid join with no
// pairs (finished zero Stats, emit never called), not an error.
// Implementations must be safe for concurrent use by multiple goroutines (they
// keep no per-call state).
type Joiner interface {
	// Name is the stable registry key (e.g. "transformers", "pbsm").
	Name() string
	// JoinStream executes the engine end to end on the two element sets,
	// reporting each result pair through emit. An emit error (including one
	// caused by context cancellation) aborts the join early and is returned.
	// The returned Result carries the Stats; Pairs stays nil.
	JoinStream(ctx context.Context, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error)
}

// registry is the process-wide engine registry. Engines register in init;
// Register is also exported so external packages can plug in experimental
// engines (sharded, partitioned) without touching this package.
var registry = struct {
	mu     sync.RWMutex
	byName map[string]Joiner
	order  []string
}{byName: make(map[string]Joiner)}

// Register adds an engine to the registry. Registering a name twice panics:
// engine names are wire-visible (HTTP "algorithm" field, bench records), so
// silent replacement would corrupt recorded comparisons.
func Register(j Joiner) {
	name := j.Name()
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.byName[name]; dup {
		panic(fmt.Sprintf("engine: duplicate registration of %q", name))
	}
	registry.byName[name] = j
	registry.order = append(registry.order, name)
}

// Get returns the engine registered under name.
func Get(name string) (Joiner, error) {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	j, ok := registry.byName[name]
	if !ok {
		return nil, fmt.Errorf("engine: unknown engine %q (known: %v)", name, namesLocked())
	}
	return j, nil
}

// Names lists the registered engine names in registration order — the
// paper's presentation order for the built-ins (transformers first, then the
// fixed-layout baselines, then the in-memory references).
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	return namesLocked()
}

func namesLocked() []string {
	return append([]string(nil), registry.order...)
}

// All returns the registered engines in registration order.
func All() []Joiner {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Joiner, 0, len(registry.order))
	for _, n := range registry.order {
		out = append(out, registry.byName[n])
	}
	return out
}

// Run resolves name and executes the engine with its pairs collected into
// Result.Pairs — the one-call collected form every layer above uses.
func Run(ctx context.Context, name string, a, b []geom.Element, opt Options) (*Result, error) {
	j, err := Get(name)
	if err != nil {
		return nil, err
	}
	return Collect(ctx, j, a, b, opt)
}

// RunStream resolves name and executes the engine, delivering each pair to
// emit — the one-call streaming form the serving layer and the CLIs use.
func RunStream(ctx context.Context, name string, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error) {
	j, err := Get(name)
	if err != nil {
		return nil, err
	}
	return run(ctx, j, a, b, opt, emit)
}

// Collect executes j — registered or not — and gathers what it emits into
// Result.Pairs: the one place an engine result is materialized, and the only
// reader of Options.DiscardPairs (which leaves Pairs nil and keeps the
// counters).
func Collect(ctx context.Context, j Joiner, a, b []geom.Element, opt Options) (*Result, error) {
	var pairs []geom.Pair
	emit := func(p geom.Pair) error { pairs = append(pairs, p); return nil }
	if opt.DiscardPairs {
		emit = func(geom.Pair) error { return nil }
	}
	res, err := run(ctx, j, a, b, opt, emit)
	if err != nil {
		return nil, err
	}
	res.Pairs = pairs
	return res, nil
}

// run is the single execution step under Run, RunStream and Collect.
func run(ctx context.Context, j Joiner, a, b []geom.Element, opt Options, emit EmitFunc) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "engine:"+j.Name())
	res, err := j.JoinStream(ctx, a, b, opt, emit)
	span.End()
	annotateEngineSpan(span, res)
	return res, err
}

// annotateEngineSpan attaches the uniform cost counters to an engine span —
// nil-safe (untraced runs pass a nil span and pay nothing).
func annotateEngineSpan(s *obs.Span, res *Result) {
	if s == nil || res == nil {
		return
	}
	s.Add("pages_read", int64(res.Stats.PagesRead))
	s.Add("candidates", int64(res.Stats.Candidates))
	s.Add("pairs", int64(res.Stats.Refinements))
	if sh := res.Stats.Shard; sh != nil {
		s.Add("tiles_run", int64(sh.TilesRun))
		s.Add("dedup_dropped", int64(sh.DedupDropped))
	}
	if im := res.Stats.InMem; im != nil {
		s.Add("stripes", int64(im.Stripes))
		s.Add("replicated", int64(im.ReplicatedA+im.ReplicatedB))
	}
}

// Prepare is every engine's first step: it validates Options.Distance, fills
// the world box (the union of the dataset MBBs when unset) and applies the
// §VIII enlarged-objects reduction, copying the inputs when it does so the
// caller's elements keep their boxes. The built-ins run it inside their
// JoinStream; meta-engines outside this package (shard) call it themselves to
// partition the already-expanded boxes, so replication and dedup see the
// geometry the join does. The returned Options still carry the original
// Distance; callers running inner engines on the returned elements must zero
// it so the reduction is not applied twice.
func Prepare(ctx context.Context, a, b []geom.Element, opt Options) ([]geom.Element, []geom.Element, Options, error) {
	if err := ctx.Err(); err != nil {
		return nil, nil, opt, err
	}
	if opt.Distance < 0 {
		return nil, nil, opt, fmt.Errorf("engine: negative distance %v", opt.Distance)
	}
	if !opt.World.Valid() || opt.World.Volume() == 0 {
		opt.World = geom.MBBOf(a).Union(geom.MBBOf(b))
	}
	if opt.Distance > 0 {
		a = geom.ExpandedForDistance(a, opt.Distance)
		b = geom.ExpandedForDistance(b, opt.Distance)
		// The world must cover the grown boxes, or PBSM/GIPSY clamp
		// protruding elements into boundary tiles more than necessary.
		opt.World = opt.World.Expand(opt.Distance / 2)
	}
	return a, b, opt, nil
}

// SortPairs orders pairs lexicographically (A then B) — the canonical order
// result sets are compared in across engines.
func SortPairs(pairs []geom.Pair) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].A != pairs[j].A {
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
}
