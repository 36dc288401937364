package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/transformers"
)

// ErrUnknownAlgorithm is returned when a join names an engine the registry
// does not serve.
var ErrUnknownAlgorithm = errors.New("server: unknown algorithm")

// AlgorithmAuto asks the planner to pick the engine from the datasets'
// cached statistics.
const AlgorithmAuto = "auto"

// Config sizes the service.
type Config struct {
	// PageSize is the page size of catalog index stores; storage default
	// when zero.
	PageSize int
	// MaxIndexes caps built indexes kept in the catalog
	// (DefaultMaxIndexes when zero).
	MaxIndexes int
	// CacheEntries and CacheMaxPairs size the join-result cache
	// (DefaultCacheEntries / DefaultCacheMaxPairs when zero).
	CacheEntries  int
	CacheMaxPairs int
	// Workers bounds concurrently executing joins and index builds
	// (GOMAXPROCS when zero); MaxQueue bounds the waiting line (negative =
	// unbounded, zero = DefaultMaxQueue; a zero-length line is not
	// representable — use MaxQueue 1 for near-immediate backpressure).
	Workers  int
	MaxQueue int
	// Parallelism is the per-join worker count used when a request does not
	// set its own (1 when zero: one pool slot = one core).
	Parallelism int
	// MaxGenerateElements caps server-side dataset generation
	// (DefaultMaxGenerateElements when zero); MaxBodyBytes caps request
	// bodies (DefaultMaxBodyBytes when zero). Both exist so one cheap
	// request cannot allocate the daemon to death.
	MaxGenerateElements int
	MaxBodyBytes        int64
	// DefaultAlgorithm is the engine used when a join request does not
	// name one: any engine.Names() entry or AlgorithmAuto ("auto", the
	// planner picks per request). engine.Transformers when empty.
	DefaultAlgorithm string
	// TenantSlots caps one tenant's concurrently executing slot units
	// while other tenants wait (0 = no per-tenant cap); TenantQueue caps
	// one tenant's waiting requests (0 = no per-tenant cap). See
	// PoolConfig.
	TenantSlots int
	TenantQueue int
	// CostUnitMS converts planner-predicted join cost into admission slot
	// units: a join predicted to take N ms occupies 1 + N/CostUnitMS units
	// (DefaultCostUnitMS when zero), so one predicted-quadratic join
	// cannot monopolize the pool at unit price.
	CostUnitMS float64
	// DefaultTimeout bounds every request without its own timeout_ms
	// (0 = no default deadline).
	DefaultTimeout time.Duration
	// ShedWindow is how long after a shed event /healthz keeps reporting
	// the tenant's queue degraded (DefaultShedWindow when zero).
	ShedWindow time.Duration
	// Retry bounds the catalog build retry loop (defaults when zero).
	Retry RetryPolicy
	// StoreFactory overrides the page store behind catalog index builds
	// (in-memory when nil); the -faults flag installs fault-injecting
	// stores here.
	StoreFactory func(pageSize int) storage.Store
	// SlowJoinThreshold bounds which joins land (with their span trees) in
	// the /debug/joins ring: slower-than-threshold only. Zero selects
	// DefaultSlowJoinThreshold; negative records every join.
	SlowJoinThreshold time.Duration
	// DebugJoins sizes the /debug/joins ring (DefaultDebugJoins when zero);
	// PlannerSamples sizes the planner accuracy ring (DefaultPlannerSamples
	// when zero).
	DebugJoins     int
	PlannerSamples int
	// PlannerLog, when non-nil, receives every planner accuracy sample as
	// one NDJSON line (the -planner-log file).
	PlannerLog io.Writer
	// PlannerCalibration, when non-nil, replaces the planner's hand-tuned
	// cost constants with fitted per-engine term multipliers (the
	// -planner-calibration file, produced by cmd/plannerfit from a
	// -planner-log recording).
	PlannerCalibration *planner.Calibration
	// DeltaMaxElements is the append-delta size at which a background merge
	// compacts a dataset's delta buffer into its main index
	// (DefaultDeltaMaxElements when zero, negative disables automatic
	// merges — deltas then grow until merged explicitly).
	DeltaMaxElements int
}

// Resource-bound defaults.
const (
	// DefaultMaxQueue is the default join admission queue length.
	DefaultMaxQueue = 64
	// DefaultMaxGenerateElements caps one generated dataset (~5M elements
	// ≈ 350MB indexed).
	DefaultMaxGenerateElements = 5_000_000
	// DefaultMaxBodyBytes caps one request body (256MB ≈ 2.5M uploaded
	// elements in JSON).
	DefaultMaxBodyBytes = 256 << 20
	// DefaultCostUnitMS is the predicted-cost currency of one admission
	// slot unit: joins predicted under this run at unit price.
	DefaultCostUnitMS = 500.0
	// DefaultShedWindow is how long a shed event keeps /healthz degraded.
	DefaultShedWindow = 10 * time.Second
	// DefaultDeltaMaxElements is the append-delta size that triggers a
	// background merge. Sized so delta sub-joins stay cheap (the inmem
	// engine handles tens of thousands of elements in milliseconds) while
	// appends amortize rebuilds well past one-element granularity.
	DefaultDeltaMaxElements = 8192
)

// Service is the spatial query service: dataset catalog, join cache, and the
// bounded join pool. All methods are safe for concurrent use.
type Service struct {
	cfg   Config
	cat   *Catalog
	cache *JoinCache
	pool  *Pool
	start time.Time

	joins        atomic.Uint64
	autoJoins    atomic.Uint64
	rangeQueries atomic.Uint64

	// Ingest activity: append requests, elements they landed, and joins
	// that composed a non-empty delta.
	appends          atomic.Uint64
	appendedElements atomic.Uint64
	deltaJoins       atomic.Uint64

	// mergeMu guards merging, the per-dataset background-merge in-flight
	// set; mergeWG lets Quiesce wait for merges the service started.
	mergeMu sync.Mutex
	merging map[string]bool
	mergeWG sync.WaitGroup

	// Streaming activity: pairs emitted to streaming consumers (cache
	// replays included) and streams aborted before completion (consumer
	// write failure or disconnect).
	streamedPairs  atomic.Uint64
	abortedStreams atomic.Uint64

	// Shard fan-out aggregates across executed sharded joins.
	shardJoins      atomic.Uint64
	shardTiles      atomic.Uint64
	shardReplicated atomic.Uint64
	shardDedupDrops atomic.Uint64

	// engineJoins counts executed (non-cached) joins per engine name.
	engineMu    sync.Mutex
	engineJoins map[string]uint64

	// tenantMu guards the per-tenant resilience counters (the pool keeps
	// its own admission counters; these are the service-level ones).
	tenantMu sync.Mutex
	tenants  map[string]*tenantCounters

	// obs is the observability state: metric registry, slow-join ring,
	// planner accuracy recorder. Always non-nil.
	obs *serviceObs

	// corrector tracks per-(dataset pair, engine) measured/predicted drift
	// from executed joins and biases future Plan calls. Always non-nil; fed
	// by the planner recorder's observer hook.
	corrector *planner.Corrector
}

// tenantCounters tallies one tenant's resilience events at the service layer.
type tenantCounters struct {
	deadlineAborts uint64
	retries        uint64
	lastGoodServes uint64
}

// NewService assembles a service from the config.
func NewService(cfg Config) *Service {
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = DefaultMaxQueue
	}
	if cfg.Parallelism == 0 {
		cfg.Parallelism = 1
	}
	if cfg.MaxGenerateElements <= 0 {
		cfg.MaxGenerateElements = DefaultMaxGenerateElements
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.DefaultAlgorithm == "" {
		cfg.DefaultAlgorithm = engine.Transformers
	}
	if cfg.CostUnitMS <= 0 {
		cfg.CostUnitMS = DefaultCostUnitMS
	}
	if cfg.ShedWindow <= 0 {
		cfg.ShedWindow = DefaultShedWindow
	}
	if cfg.DeltaMaxElements == 0 {
		cfg.DeltaMaxElements = DefaultDeltaMaxElements
	}
	cat := NewCatalog(cfg.MaxIndexes, cfg.PageSize)
	cat.SetRetryPolicy(cfg.Retry)
	if cfg.StoreFactory != nil {
		cat.SetStoreFactory(cfg.StoreFactory)
	}
	s := &Service{
		cfg:   cfg,
		cat:   cat,
		cache: NewJoinCache(cfg.CacheEntries, cfg.CacheMaxPairs),
		pool: NewPool(PoolConfig{
			Capacity:    cfg.Workers,
			MaxQueue:    cfg.MaxQueue,
			TenantSlots: cfg.TenantSlots,
			TenantQueue: cfg.TenantQueue,
		}),
		start:       time.Now(),
		engineJoins: make(map[string]uint64),
		tenants:     make(map[string]*tenantCounters),
		merging:     make(map[string]bool),
		corrector:   planner.NewCorrector(),
	}
	// A write drops, in one invalidation, the dataset's resident partitions
	// (inside the catalog) and its cached join results (here).
	cat.SetWriteObserver(s.cache.DropDataset)
	s.obs = newServiceObs(s, cfg)
	// Every executed (non-cached) sample teaches the corrector its engine's
	// measured/predicted ratio for that dataset pair; Observe ignores
	// unpriced samples (PredictedMS < 0) on its own.
	s.obs.recorder.SetObserver(func(ps obs.PlannerSample) {
		if ps.CacheHit {
			return
		}
		s.corrector.Observe(ps.A.Name, ps.B.Name, ps.Engine, ps.PredictedMS, ps.MeasuredMS)
	})
	cat.SetBuildObserver(func(d time.Duration, ok bool) {
		outcome := "ok"
		if !ok {
			outcome = "error"
		}
		s.obs.buildHist.Observe(outcome, d.Seconds())
	})
	return s
}

// tenantCounter returns (creating if needed) the counters of ctx's tenant.
func (s *Service) tenantCounter(ctx context.Context) *tenantCounters {
	id := TenantFrom(ctx).ID
	s.tenantMu.Lock()
	defer s.tenantMu.Unlock()
	tc := s.tenants[id]
	if tc == nil {
		tc = &tenantCounters{}
		s.tenants[id] = tc
	}
	return tc
}

// noteOutcome attributes a request outcome to its tenant: deadline aborts,
// build retries, and stale last-good serves.
func (s *Service) noteOutcome(ctx context.Context, err error, retries int, stale bool) {
	if err == nil && retries == 0 && !stale {
		return
	}
	tc := s.tenantCounter(ctx)
	s.tenantMu.Lock()
	if errors.Is(err, context.DeadlineExceeded) {
		tc.deadlineAborts++
	}
	tc.retries += uint64(retries)
	if stale {
		tc.lastGoodServes++
	}
	s.tenantMu.Unlock()
}

// admission builds the pool request for ctx's tenant at the given slot cost.
func admission(ctx context.Context, cost int) Request {
	ti := TenantFrom(ctx)
	return Request{Tenant: ti.ID, Priority: ti.Priority, Cost: cost}
}

// Catalog exposes the dataset catalog (tests and the example client).
func (s *Service) Catalog() *Catalog { return s.cat }

// BuildInfo reports one dataset registration.
type BuildInfo struct {
	Name     string  `json:"name"`
	Elements int     `json:"elements"`
	Version  uint64  `json:"version"`
	Units    int     `json:"units"`
	Nodes    int     `json:"nodes"`
	BuildMS  float64 `json:"build_ms"`
	// DecodeMS is what the HTTP handler spent reading and decoding the
	// request body before the registration that BuildMS times began; with
	// it the two halves of an upload's cost read off the response.
	DecodeMS float64 `json:"decode_ms"`
	// SkewCV and ClusterFraction are the planner signals computed at
	// registration (cached per version; see planner.DatasetStats).
	SkewCV          float64 `json:"skew_cv"`
	ClusterFraction float64 `json:"cluster_fraction"`
}

// AddDataset registers (or replaces) a named dataset and eagerly builds its
// base index, so the first query pays no build latency. The build runs under
// the pool's admission control — a registration storm gets ErrBusy like any
// other expensive work. The element slice is owned by the service afterwards.
func (s *Service) AddDataset(ctx context.Context, name string, elems []transformers.Element) (BuildInfo, error) {
	if name == "" {
		return BuildInfo{}, fmt.Errorf("server: empty dataset name")
	}
	start := time.Now()
	var h *Handle
	var version uint64
	// Put happens inside admission: a registration rejected with ErrBusy (or
	// abandoned by the client) must not have replaced the dataset.
	if err := s.pool.Do(ctx, admission(ctx, 1), func() error {
		version = s.cat.Put(name, elems)
		var aerr error
		h, aerr = s.cat.Acquire(ctx, name, 0)
		if aerr == nil && h.Stale {
			// The new version's eager build failed and the catalog fell
			// back to the previous one. The dataset is registered (joins
			// will serve last-good) but the registration must report the
			// failure, not describe the stale index.
			h.Release()
			h = nil
			return fmt.Errorf("server: dataset %q version %d registered, but its index build is failing; queries serve the last-good version", name, version)
		}
		return aerr
	}); err != nil {
		s.noteOutcome(ctx, err, 0, false)
		return BuildInfo{}, err
	}
	s.noteOutcome(ctx, nil, h.Retries, false)
	defer h.Release()
	br := h.Index.BuildReport()
	info := BuildInfo{
		Name:     name,
		Elements: br.Elements,
		Version:  version,
		Units:    br.Units,
		Nodes:    br.Nodes,
		BuildMS:  float64(time.Since(start)) / float64(time.Millisecond),
	}
	if st, _, err := s.cat.DatasetStats(name); err == nil {
		info.SkewCV = st.SkewCV
		info.ClusterFraction = st.ClusterFraction
	}
	return info, nil
}

// Append lands elems in name's delta buffer: they become visible to joins
// immediately (the next join composes them through delta sub-joins) without
// an index rebuild or a version bump. When the delta reaches the configured
// merge threshold, a background merge is triggered — single-flight per
// dataset — and the returned info notes it. Appends are cheap (a slice
// append under the catalog lock) and bypass pool admission; only the merge
// they may trigger pays for a build, at Batch priority.
func (s *Service) Append(ctx context.Context, name string, elems []transformers.Element) (AppendInfo, error) {
	info, err := s.cat.Append(name, elems)
	if err != nil {
		return AppendInfo{}, err
	}
	s.appends.Add(1)
	s.appendedElements.Add(uint64(len(elems)))
	if max := s.cfg.DeltaMaxElements; max > 0 && info.DeltaElements >= max {
		if s.triggerMerge(name) {
			info.MergeTriggered = true
		}
	}
	return info, nil
}

// triggerMerge starts a background merge of name's delta unless this service
// already has one in flight, and reports whether this call started one. The
// in-flight set is per-service on top of the catalog's own single-flight
// guard so a burst of over-threshold appends does not queue a goroutine per
// append.
func (s *Service) triggerMerge(name string) bool {
	s.mergeMu.Lock()
	if s.merging[name] {
		s.mergeMu.Unlock()
		return false
	}
	s.merging[name] = true
	s.mergeWG.Add(1)
	s.mergeMu.Unlock()
	go func() {
		defer s.mergeWG.Done()
		defer func() {
			s.mergeMu.Lock()
			delete(s.merging, name)
			s.mergeMu.Unlock()
		}()
		// Merges are background system work: Batch priority, so interactive
		// joins preempt compaction, and a fresh context — the append that
		// crossed the threshold must not abort the merge by disconnecting.
		// A failed merge (ErrBusy included) retains the delta; the next
		// over-threshold append re-triggers.
		_ = s.pool.Do(context.Background(), Request{Tenant: "system", Priority: Batch, Cost: 1}, func() error {
			_, err := s.cat.MergeDelta(context.Background(), name)
			return err
		})
	}()
	return true
}

// Quiesce blocks until the background merges this service has started have
// finished (tests and orderly shutdown).
func (s *Service) Quiesce() { s.mergeWG.Wait() }

// JoinParams selects a join execution.
type JoinParams struct {
	// Distance > 0 runs the distance join of §VIII: pairs whose boxes come
	// within the given Chebyshev distance. 0 is the plain intersection join.
	Distance float64
	// Parallelism overrides the per-join worker count (service default when
	// zero, all cores when negative). Only engines whose capabilities
	// report Parallel honor it.
	Parallelism int
	// NoCache bypasses the result cache (both lookup and fill).
	NoCache bool
	// Algorithm names the engine to run: any engine.Names() entry,
	// AlgorithmAuto to let the planner pick, or empty for the service
	// default.
	Algorithm string
	// ShardTiles pins the tile count K of the sharded meta-engines (0 =
	// the engine's statistics-driven choice); other engines ignore it.
	ShardTiles int
}

// JoinOutcome is one join result: pairs in A/B orientation, the cost
// summary, and whether the cache served it.
type JoinOutcome struct {
	Pairs   []transformers.Pair
	Summary JoinSummary
	Cached  bool
}

// joinKey assembles the cache key for one join execution. ShardTiles is part
// of the key: the pair set is invariant in it (a tested property), but the
// cached cost summary describes one concrete fan-out, and serving a K=4
// execution record for a K=16 request would misreport what ran. The delta
// epochs pin the append-buffer state the result composed, so an append is an
// immediate cache miss without a version bump.
func joinKey(a, b string, va, vb, ea, eb uint64, distance float64, algorithm string, shardTiles int) JoinKey {
	key := JoinKey{A: a, B: b, VersionA: va, VersionB: vb, DeltaEpochA: ea, DeltaEpochB: eb, Predicate: "intersects", Distance: distance, Algorithm: algorithm, ShardTiles: shardTiles}
	if distance > 0 {
		key.Predicate = "distance"
	}
	return key
}

// plannedStats fetches both inputs' cached statistics and adjusts them for
// the distance predicate the join will actually run: a distance join expands
// every box by distance/2 per side before intersecting, so the planner must
// price the expanded workload, not the base one. Identity at distance 0.
func (s *Service) plannedStats(a, b string, distance float64) (planner.DatasetStats, planner.DatasetStats, error) {
	sa, _, err := s.cat.DatasetStats(a)
	if err != nil {
		return planner.DatasetStats{}, planner.DatasetStats{}, err
	}
	sb, _, err := s.cat.DatasetStats(b)
	if err != nil {
		return planner.DatasetStats{}, planner.DatasetStats{}, err
	}
	if _, _, dl, err := s.cat.VersionEpoch(a); err == nil {
		sa = deltaAdjusted(sa, dl)
	}
	if _, _, dl, err := s.cat.VersionEpoch(b); err == nil {
		sb = deltaAdjusted(sb, dl)
	}
	return planner.ExpandStats(sa, distance), planner.ExpandStats(sb, distance), nil
}

// deltaAdjusted folds a dataset's append-delta cardinality into its cached
// planner statistics. Only Count grows: the distribution signals (skew,
// clustering, density) are assumed delta-alike — the delta is bounded by the
// merge threshold, so even an adversarial delta cannot skew them for long —
// and recomputing them per request would put an O(delta) scan on every plan.
func deltaAdjusted(st planner.DatasetStats, delta int) planner.DatasetStats {
	st.Count += delta
	return st
}

// plannerConfig assembles one join's planner configuration: the serving
// economics (prebuilt TRANSFORMERS, pinned tiles, resolved workers) plus the
// service's fitted calibration and the pair's learned drift corrections.
func (s *Service) plannerConfig(a, b string, shardTiles, workers int) planner.Config {
	return planner.Config{
		PageSize:             s.cfg.PageSize,
		PrebuiltTransformers: true,
		ShardTiles:           shardTiles,
		ShardWorkers:         workers,
		Calibration:          s.cfg.PlannerCalibration,
		Correct:              s.corrector.Bind(a, b),
	}
}

// resolveAlgorithm turns the request's algorithm field into a concrete
// engine name, consulting the planner on "auto". The planner prices the
// TRANSFORMERS engine without a build phase (its indexes live in the
// catalog) while every other engine pays a per-request build — the serving
// economics, not just the algorithmic ones. The inmem engine's partition is
// catalog-resident too, but whether a given join finds it there depends on
// the writes and joins before it, so the planner keeps pricing the build and
// the per-pair drift corrector learns how often it is actually paid. The
// plan must describe the execution that would actually run: a pinned shard
// tile count is priced as pinned, shard fan-out is priced at this join's
// resolved worker count (workers <= 0 means all cores, the planner's default
// budget), and a distance join is priced over distance-expanded statistics.
func (s *Service) resolveAlgorithm(a, b string, requested string, distance float64, shardTiles, workers int) (string, *PlannerInfo, error) {
	algo := requested
	if algo == "" {
		algo = s.cfg.DefaultAlgorithm
	}
	if algo != AlgorithmAuto {
		if _, err := engine.Get(algo); err != nil {
			return "", nil, fmt.Errorf("%w: %q", ErrUnknownAlgorithm, algo)
		}
		return algo, nil, nil
	}
	sa, sb, err := s.plannedStats(a, b, distance)
	if err != nil {
		return "", nil, err
	}
	s.autoJoins.Add(1)
	if workers < 0 {
		workers = 0 // all cores: the planner's own default budget
	}
	d := planner.Plan(sa, sb, s.plannerConfig(a, b, shardTiles, workers))
	return d.Engine, &PlannerInfo{Requested: AlgorithmAuto, Fallback: d.Fallback, ShardTiles: d.ShardTiles, Scores: d.Scores}, nil
}

// countEngineJoin tallies one executed join per engine for /stats.
func (s *Service) countEngineJoin(name string) {
	s.engineMu.Lock()
	s.engineJoins[name]++
	s.engineMu.Unlock()
}

// countShardJoin aggregates one sharded execution's fan-out record for
// /stats (no-op for non-sharded engines).
func (s *Service) countShardJoin(sh *engine.ShardStats) {
	if sh == nil {
		return
	}
	s.shardJoins.Add(1)
	s.shardTiles.Add(uint64(sh.TilesRun))
	s.shardReplicated.Add(uint64(sh.ReplicatedA + sh.ReplicatedB))
	s.shardDedupDrops.Add(sh.DedupDropped)
}

// joinPlan is the resolved execution of one join request — everything the
// collected and streaming paths share before any expensive work runs.
type joinPlan struct {
	algo        string
	plan        *PlannerInfo
	parallelism int
	// keyTiles is the fan-out as cached, execTiles the fan-out actually
	// executed (planner- or statistics-derived when unpinned). They are
	// equal for sharded engines — the key carries the executed fan-out, not
	// the request's pin — and both zero otherwise.
	keyTiles  int
	execTiles int
	va, vb    uint64
	// ea and eb are the inputs' delta epochs at planning time, the cache
	// fast path's key components alongside the versions.
	ea, eb uint64
	// cost is the admission price in pool slot units, derived from the
	// planner's predicted cost of the resolved engine.
	cost int
	// predictedMS is the planner's cost estimate of the resolved engine
	// (-1 when unpriced: missing statistics or an Inf/NaN score) and scores
	// the full candidate set — the planner accuracy recorder's inputs,
	// captured for explicit requests too, not just "auto".
	predictedMS float64
	scores      []planner.Score
	// excluded names the candidates the planner refused to price finitely
	// (engine → reason); terms is the chosen engine's raw cost-term
	// decomposition and correction the drift factor applied to its score —
	// the planner sample fields the offline fitter trains on.
	excluded   map[string]string
	terms      map[string]float64
	correction float64
}

// planJoin validates the request and resolves algorithm, fan-out and dataset
// versions — the shared prelude of Join and JoinStream.
func (s *Service) planJoin(a, b string, p JoinParams) (joinPlan, error) {
	if p.Distance < 0 || math.IsNaN(p.Distance) || math.IsInf(p.Distance, 0) {
		return joinPlan{}, fmt.Errorf("server: invalid distance %v", p.Distance)
	}
	s.joins.Add(1)

	jp := joinPlan{parallelism: p.Parallelism}
	if jp.parallelism == 0 {
		jp.parallelism = s.cfg.Parallelism
	}
	// Normalize the tile pin to the engine contract up front — negatives
	// mean auto, larger pins clamp to the tile cap — so planning, caching
	// and execution all describe the same fan-out.
	pin := p.ShardTiles
	if pin < 0 {
		pin = 0
	}
	if pin > engine.ShardMaxTiles {
		pin = engine.ShardMaxTiles
	}

	// Resolve "auto" before the cache: the planner decision is
	// deterministic per dataset version, so auto requests share cache
	// entries with explicit requests for the same engine.
	var err error
	jp.algo, jp.plan, err = s.resolveAlgorithm(a, b, p.Algorithm, p.Distance, pin, jp.parallelism)
	if err != nil {
		return joinPlan{}, err
	}
	// The pin only means something to the sharded engines: zeroing it
	// otherwise keeps the cache from splitting byte-identical results of
	// the other engines over an ignored field. An unpinned sharded
	// execution reuses the planner's tile selection (auto) or computes it
	// from the catalog's cached per-version statistics (explicit), so the
	// engine never repeats the O(n) statistics pass on the serving path.
	if strings.HasPrefix(jp.algo, engine.ShardPrefix) {
		jp.execTiles = pin
		if jp.execTiles == 0 {
			if jp.plan != nil {
				jp.execTiles = jp.plan.ShardTiles
			} else if sa, sb, err := s.plannedStats(a, b, p.Distance); err == nil {
				jp.execTiles = planner.ShardTiles(sa, sb)
			}
		}
		// Key on the fan-out that executes, not the request's pin: an auto
		// request resolving to K and an explicit request pinning the same K
		// run identically and must share one cache entry — the sharing
		// cache.go documents.
		jp.keyTiles = jp.execTiles
	}

	// Current dataset versions and delta epochs for the cache fast path,
	// before any index is acquired: a hit must not pay an index (re)build of
	// an evicted variant. VersionEpoch is a cheap catalog lookup; a
	// replacement, append or merge racing between this check and the later
	// acquisition only turns a hit into a safe miss (the stored key uses the
	// state actually served).
	if jp.va, jp.ea, _, err = s.cat.VersionEpoch(a); err != nil {
		return joinPlan{}, err
	}
	if jp.vb, jp.eb, _, err = s.cat.VersionEpoch(b); err != nil {
		return joinPlan{}, err
	}
	s.priceJoin(a, b, p.Distance, &jp)
	return jp, nil
}

// priceJoin converts the planner's predicted cost of the resolved engine
// into the request's admission price in slot units: 1 + CostMS/CostUnitMS,
// so a predicted-quadratic join occupies many slots (the pool clamps to its
// capacity — such a join runs alone) while typical joins stay at unit price.
// Auto requests reuse the plan already computed; explicit requests price from
// the same cached statistics, and price at 1 when statistics are missing.
func (s *Service) priceJoin(a, b string, distance float64, jp *joinPlan) {
	jp.cost = 1
	jp.predictedMS = -1
	scores := []planner.Score(nil)
	if jp.plan != nil {
		scores = jp.plan.Scores
	} else {
		sa, sb, err := s.plannedStats(a, b, distance)
		if err != nil {
			return
		}
		workers := jp.parallelism
		if workers < 0 {
			workers = 0
		}
		scores = planner.Plan(sa, sb, s.plannerConfig(a, b, jp.keyTiles, workers)).Scores
	}
	jp.scores = scores
	for _, sc := range scores {
		// Non-finitely priced candidates are recorded with their reason, not
		// silently dropped: the accuracy log must show *why* an engine is
		// absent from the score map (fitters ignore excluded candidates).
		if math.IsInf(sc.CostMS, 0) || math.IsNaN(sc.CostMS) {
			if jp.excluded == nil {
				jp.excluded = make(map[string]string)
			}
			reason := sc.Reason
			if reason == "" {
				reason = "non-finite predicted cost"
			}
			jp.excluded[sc.Engine] = reason
		}
	}
	for _, sc := range scores {
		if sc.Engine != jp.algo {
			continue
		}
		if math.IsInf(sc.CostMS, 1) || math.IsNaN(sc.CostMS) {
			jp.cost = 1 << 20 // planner refused to price it: full pool
		} else {
			jp.predictedMS = sc.CostMS
			if len(sc.Terms) > 0 {
				jp.terms = make(map[string]float64, len(sc.Terms))
				for _, t := range sc.Terms {
					jp.terms[t.Name] = t.MS
				}
			}
			jp.correction = s.corrector.Factor(a, b, jp.algo)
			if c := 1 + int(sc.CostMS/s.cfg.CostUnitMS); c > jp.cost {
				jp.cost = c
			}
		}
		return
	}
}

// execFunc runs the resolved engine on prepared inputs — engine.Run for the
// collected path, engine.RunStream with a consumer emit for the streaming
// one.
type execFunc func(ctx context.Context, algo string, ea, eb []transformers.Element, opt engine.Options) (*engine.Result, error)

// admitted runs fn inside one pool slot, bracketing the queue wait with an
// "admission-wait" span (queue depth and slot cost at arrival) and the slot
// time with a top-level "execute" span whose context fn receives, so engine
// and catalog spans nest under it. The execute span is returned (nil when
// untraced or never admitted) so the streaming path can attach its emit
// record to it after the fact.
func (s *Service) admitted(ctx context.Context, cost int, fn func(ctx context.Context) error) (*obs.Span, error) {
	_, wait := obs.Start(ctx, "admission-wait")
	if wait != nil {
		wait.Add("queue_depth", int64(s.pool.QueueDepth()))
		wait.Add("cost_units", int64(cost))
	}
	var exec *obs.Span
	err := s.pool.Do(ctx, admission(ctx, cost), func() error {
		wait.End()
		ectx, ex := obs.Start(ctx, "execute")
		exec = ex
		defer ex.End()
		return fn(ectx)
	})
	wait.End() // idempotent: closes the span when admission failed
	return exec, err
}

// execution is what one executed (non-cached) join hands back to Join and
// JoinStream: the engine result, the cache key of the state it actually ran
// on, and the per-request facts the summary reports.
type execution struct {
	res   *engine.Result
	key   JoinKey
	stale bool
	delta *DeltaSummary
	// span is the "execute" span (nil when untraced or never admitted), so
	// the streaming path can attach its emit record after the fact.
	span *obs.Span
	// part is the (already released) partition an inmem join ran on; nil for
	// every other engine. Forget it when the result was stored.
	part *PartitionHandle
}

// executeJoin runs the planned join inside one pool slot, so admission
// control bounds all expensive work — including the single-flight index and
// partition builds acquisition can trigger (a distance join builds expanded
// variants of both sides, §VIII) and the per-request builds of the other
// engines. Waiting on another request's in-flight build consumes this slot
// but never needs a second one, so slots cannot deadlock.
func (s *Service) executeJoin(ctx context.Context, a, b string, p JoinParams, jp joinPlan, exec execFunc) (execution, error) {
	var ex execution
	var run func(ctx context.Context) error
	switch jp.algo {
	case engine.Transformers:
		// Catalog path: reuse the prebuilt (and, for distance joins,
		// pre-expanded) indexes through the registry's prebuilt option. A
		// non-empty delta buffer composes on top: the prebuilt indexes cover
		// base×base, and the delta sub-joins run inmem afterwards against
		// the same pinned generation — the handles fix which (base, delta)
		// snapshot this join describes even if a merge installs a successor
		// generation mid-join.
		run = func(ctx context.Context) error {
			cctx, cat := obs.Start(ctx, "catalog")
			ha, err := s.cat.Acquire(cctx, a, p.Distance)
			if err != nil {
				cat.End()
				return err
			}
			defer ha.Release()
			hb, err := s.cat.Acquire(cctx, b, p.Distance)
			cat.End()
			if err != nil {
				return err
			}
			defer hb.Release()
			ex.stale = ha.Stale || hb.Stale
			s.noteOutcome(ctx, nil, ha.Retries+hb.Retries, ex.stale)
			baseA, deltaA, epochA := s.cat.DeltaView(ha)
			baseB, deltaB, epochB := s.cat.DeltaView(hb)
			ex.key = joinKey(a, b, ha.Version, hb.Version, epochA, epochB, p.Distance, jp.algo, jp.keyTiles)
			ex.res, err = exec(ctx, jp.algo, nil, nil, engine.Options{
				Parallelism: jp.parallelism,
				Concurrent:  true,
				PageSize:    s.cfg.PageSize,
				Prebuilt:    &engine.Prebuilt{A: ha.Index.Core(), B: hb.Index.Core()},
			})
			if err == nil && len(deltaA)+len(deltaB) > 0 {
				ex.delta, err = s.deltaJoin(ctx, ex.res, baseA, baseB, deltaA, deltaB, p, jp, exec)
			}
			return err
		}
	case engine.InMem:
		// Catalog path of the in-memory engine: its index is the stripe
		// partition of the dataset pair, built by the first join of the
		// pair's current state and reused until a write. The partition
		// covers base + delta with the distance expansion applied, so only
		// the kernel runs here — no composition, no Options.Distance.
		run = func(ctx context.Context) error {
			pctx, span := obs.Start(ctx, "partition")
			h, err := s.cat.AcquirePartition(pctx, a, b, p.Distance)
			span.End()
			if err != nil {
				return err
			}
			defer h.Release()
			ex.part = h
			if span != nil {
				hit := int64(0)
				if h.Hit {
					hit = 1
				}
				span.Add("hit", hit)
				span.Add("bytes", int64(h.Partition.Bytes()))
				span.Add("stripes", int64(h.Partition.Stripes()))
			}
			ex.key = joinKey(a, b, h.VersionA, h.VersionB, h.EpochA, h.EpochB, p.Distance, jp.algo, jp.keyTiles)
			ex.res, err = exec(ctx, jp.algo, nil, nil, engine.Options{
				Parallelism: jp.parallelism,
				PageSize:    s.cfg.PageSize,
				Prebuilt:    &engine.Prebuilt{Partition: h.Partition},
			})
			if err != nil {
				return err
			}
			// The build this request paid: the partition's, or none.
			ex.res.Stats.BuildWall += h.Build
			ex.res.Stats.BuildTotal += h.Build
			if h.DeltaA+h.DeltaB > 0 {
				ex.delta = &DeltaSummary{ElementsA: h.DeltaA, ElementsB: h.DeltaB}
				s.deltaJoins.Add(1)
			}
			return nil
		}
	default:
		// Registry path: the engine indexes private element copies per
		// request (distance expansion included), inside the same slot. The
		// snapshot folds any delta into the copy, so per-request indexing
		// engines see exactly what a full rebuild would — no composition.
		run = func(ctx context.Context) error {
			ea, verA, epochA, dlA, err := s.cat.Snapshot(a)
			if err != nil {
				return err
			}
			eb, verB, epochB, dlB, err := s.cat.Snapshot(b)
			if err != nil {
				return err
			}
			ex.key = joinKey(a, b, verA, verB, epochA, epochB, p.Distance, jp.algo, jp.keyTiles)
			ex.res, err = exec(ctx, jp.algo, ea, eb, engine.Options{
				Distance:    p.Distance,
				Parallelism: jp.parallelism,
				PageSize:    s.cfg.PageSize,
				ShardTiles:  jp.execTiles,
			})
			if err == nil && dlA+dlB > 0 {
				ex.delta = &DeltaSummary{ElementsA: dlA, ElementsB: dlB}
				s.deltaJoins.Add(1)
			}
			return err
		}
	}
	var err error
	ex.span, err = s.admitted(ctx, jp.cost, run)
	if err != nil {
		s.noteOutcome(ctx, err, 0, false)
	}
	return ex, err
}

// storeResult caches an executed join's result and settles its partition: a
// partition is retained exactly when its result is not, because a stored
// result answers every repeat until the next write makes both unreachable.
func (s *Service) storeResult(ex execution, res *CachedJoin) {
	if s.cache.Put(ex.key, res) {
		ex.part.Forget()
	}
}

// deltaJoin composes the append-delta sub-joins of one prebuilt-path join:
// base×delta, delta×base and delta×delta run through the inmem engine on the
// pinned generation's snapshot, through the same exec seam as the base join —
// so the streaming path's tee and emit apply to delta pairs exactly as to
// base pairs. The three sub-joins partition the non-base×base pairs of
// (baseA ∪ deltaA)×(baseB ∪ deltaB), so the composed result is multiset-equal
// to a full rebuild by construction; empty sides are skipped. Distance joins
// pass Options.Distance so the inmem engine expands the delta inputs exactly
// as the catalog pre-expanded the base indexes.
func (s *Service) deltaJoin(ctx context.Context, res *engine.Result, baseA, baseB, deltaA, deltaB []transformers.Element, p JoinParams, jp joinPlan, exec execFunc) (*DeltaSummary, error) {
	dctx, span := obs.Start(ctx, "delta-join")
	sum := &DeltaSummary{ElementsA: len(deltaA), ElementsB: len(deltaB)}
	opt := engine.Options{
		Distance:    p.Distance,
		Parallelism: jp.parallelism,
		PageSize:    s.cfg.PageSize,
	}
	var pairs uint64
	for _, sj := range [3]struct{ ea, eb []transformers.Element }{
		{baseA, deltaB},
		{deltaA, baseB},
		{deltaA, deltaB},
	} {
		if len(sj.ea) == 0 || len(sj.eb) == 0 {
			continue
		}
		sub, err := exec(dctx, engine.InMem, sj.ea, sj.eb, opt)
		if err != nil {
			span.End()
			return nil, err
		}
		res.Pairs = append(res.Pairs, sub.Pairs...)
		mergeDeltaStats(&res.Stats, sub.Stats)
		pairs += sub.Stats.Refinements
		sum.SubJoins++
	}
	span.End()
	span.Add("delta_a", int64(len(deltaA)))
	span.Add("delta_b", int64(len(deltaB)))
	span.Add("sub_joins", int64(sum.SubJoins))
	span.Add("pairs", int64(pairs))
	sum.Pairs = pairs
	s.deltaJoins.Add(1)
	return sum, nil
}

// mergeDeltaStats folds one delta sub-join's cost into the composed result's
// stats, so the summary (and the planner accuracy sample derived from it)
// prices the work that actually ran, not just the base join.
func mergeDeltaStats(dst *engine.Stats, sub engine.Stats) {
	dst.BuildWall += sub.BuildWall
	dst.BuildIOTime += sub.BuildIOTime
	dst.BuildTotal += sub.BuildTotal
	dst.IndexedPages += sub.IndexedPages
	dst.JoinWall += sub.JoinWall
	dst.JoinIOTime += sub.JoinIOTime
	dst.JoinTotal += sub.JoinTotal
	dst.PagesRead += sub.PagesRead
	dst.Candidates += sub.Candidates
	dst.MetaComparisons += sub.MetaComparisons
	dst.Refinements += sub.Refinements
}

// summarize flattens one executed result into the cacheable cost summary and
// tallies the per-engine and shard counters.
func (s *Service) summarize(algo string, res *engine.Result) JoinSummary {
	s.countEngineJoin(algo)
	s.countShardJoin(res.Stats.Shard)
	return JoinSummary{
		Algorithm:       algo,
		Results:         res.Stats.Refinements,
		Comparisons:     res.Stats.Candidates,
		MetaComparisons: res.Stats.MetaComparisons,
		JoinWallMS:      float64(res.Stats.JoinWall) / float64(time.Millisecond),
		ModeledIOMS:     float64(res.Stats.JoinIOTime) / float64(time.Millisecond),
		Reads:           res.Stats.PagesRead,
		BuildMS:         float64(res.Stats.BuildTotal) / float64(time.Millisecond),
		Shard:           res.Stats.Shard,
	}
}

// Join runs (or serves from cache) the join of datasets a and b through the
// requested (or planned) engine. Pair orientation follows the argument
// order. The returned pair slice may be shared with the cache — callers must
// not mutate it.
func (s *Service) Join(ctx context.Context, a, b string, p JoinParams) (*JoinOutcome, error) {
	start := time.Now()
	_, planSpan := obs.Start(ctx, "plan")
	jp, err := s.planJoin(a, b, p)
	planSpan.End()
	if err != nil {
		return nil, err
	}
	annotatePlan(planSpan, jp)
	if !p.NoCache {
		_, cacheSpan := obs.Start(ctx, "cache")
		res, ok := s.cache.Get(joinKey(a, b, jp.va, jp.vb, jp.ea, jp.eb, p.Distance, jp.algo, jp.keyTiles))
		cacheSpan.End()
		if ok {
			cacheSpan.Add("hit", 1)
			summary := res.Summary
			summary.Planner = jp.plan // report this request's planning, not the filler's
			s.recordPlannerSample(ctx, a, b, p, jp, summary, time.Since(start), true, false)
			return &JoinOutcome{Pairs: res.Pairs, Summary: summary, Cached: true}, nil
		}
	}
	ex, err := s.executeJoin(ctx, a, b, p, jp, func(ctx context.Context, algo string, ea, eb []transformers.Element, opt engine.Options) (*engine.Result, error) {
		return engine.Run(ctx, algo, ea, eb, opt)
	})
	if err != nil {
		return nil, err
	}
	summary := s.summarize(jp.algo, ex.res)
	// The delta composition is part of the cached content — the key pins the
	// epochs it composed at — unlike the planner report and staleness below.
	summary.Delta = ex.delta
	if !p.NoCache {
		// Cache without the planner report or staleness: the key carries the
		// served versions, and hits splice in their own request context.
		s.storeResult(ex, &CachedJoin{Pairs: ex.res.Pairs, Summary: summary})
	}
	summary.Planner = jp.plan
	summary.Stale = ex.stale
	s.recordPlannerSample(ctx, a, b, p, jp, summary, time.Since(start), false, ex.part != nil && ex.part.Hit)
	return &JoinOutcome{Pairs: ex.res.Pairs, Summary: summary}, nil
}

// annotatePlan attaches the resolved plan to the "plan" span; nil-safe.
func annotatePlan(span *obs.Span, jp joinPlan) {
	if span == nil {
		return
	}
	span.Add("candidates", int64(len(jp.scores)))
	span.Add("cost_units", int64(jp.cost))
	if jp.execTiles > 0 {
		span.Add("shard_tiles", int64(jp.execTiles))
	}
}

// recordPlannerSample feeds one served join into the planner accuracy
// recorder. Cache hits replay the cached summary's measurements and are
// flagged so aggregation keeps but does not average them; an inmem join that
// found its partition resident is flagged too, because its measured cost has
// no build while the prediction still prices one. The measured cost
// is the modeled execution currency the planner predicts in
// (build + join wall + modeled I/O), so predicted and measured compare like
// for like.
func (s *Service) recordPlannerSample(ctx context.Context, a, b string, p JoinParams, jp joinPlan, summary JoinSummary, wall time.Duration, cacheHit, partitionHit bool) {
	sample := obs.PlannerSample{
		Time:         time.Now(),
		RequestID:    obs.FromContext(ctx).ID(),
		Predicate:    "intersects",
		Distance:     p.Distance,
		Engine:       jp.algo,
		Auto:         jp.plan != nil,
		PredictedMS:  jp.predictedMS,
		MeasuredMS:   summary.BuildMS + summary.JoinWallMS + summary.ModeledIOMS,
		WallMS:       float64(wall) / float64(time.Millisecond),
		CacheHit:     cacheHit,
		PartitionHit: partitionHit,
	}
	if p.Distance > 0 {
		sample.Predicate = "distance"
	}
	sample.A = s.datasetFeatures(a, jp.va)
	sample.B = s.datasetFeatures(b, jp.vb)
	sample.Excluded = jp.excluded
	sample.Terms = jp.terms
	sample.CorrectionFactor = jp.correction
	if len(jp.scores) > 0 {
		sample.Scores = make(map[string]float64, len(jp.scores))
		for _, sc := range jp.scores {
			if !math.IsInf(sc.CostMS, 0) && !math.IsNaN(sc.CostMS) {
				sample.Scores[sc.Engine] = sc.CostMS
			}
		}
	}
	s.obs.recorder.Record(sample)
}

// datasetFeatures snapshots one input's planner statistics for a sample.
func (s *Service) datasetFeatures(name string, version uint64) obs.DatasetFeatures {
	f := obs.DatasetFeatures{Name: name, Version: int64(version)}
	if st, _, err := s.cat.DatasetStats(name); err == nil {
		f.Count = st.Count
		f.SkewCV = st.SkewCV
		f.ClusterFraction = st.ClusterFraction
	}
	return f
}

// JoinStream runs the join of datasets a and b, delivering each result pair
// to emit as the engine finds it instead of materializing the result. A
// cache hit replays the cached pairs; a miss executes the engine's streaming
// path, so server-side pair buffering is bounded by the engine's worker
// budget plus the cache-fill tee — and the tee is abandoned the moment the
// result provably exceeds the cache's per-entry threshold, so an
// arbitrarily large join streams in bounded memory and is simply not
// cached. An emit error (a slow consumer gone away, the request context
// canceled) aborts the underlying join and is returned. The returned
// outcome carries the summary with Pairs nil.
func (s *Service) JoinStream(ctx context.Context, a, b string, p JoinParams, emit func(transformers.Pair) error) (*JoinOutcome, error) {
	start := time.Now()
	_, planSpan := obs.Start(ctx, "plan")
	jp, err := s.planJoin(a, b, p)
	planSpan.End()
	if err != nil {
		return nil, err
	}
	annotatePlan(planSpan, jp)
	if !p.NoCache {
		_, cacheSpan := obs.Start(ctx, "cache")
		res, ok := s.cache.Get(joinKey(a, b, jp.va, jp.vb, jp.ea, jp.eb, p.Distance, jp.algo, jp.keyTiles))
		cacheSpan.End()
		if ok {
			cacheSpan.Add("hit", 1)
			_, replay := obs.Start(ctx, "replay")
			for i, pr := range res.Pairs {
				if err := emit(pr); err != nil {
					replay.End()
					replay.Add("pairs", int64(i))
					s.streamedPairs.Add(uint64(i))
					s.abortedStreams.Add(1)
					return nil, err
				}
			}
			replay.End()
			replay.Add("pairs", int64(len(res.Pairs)))
			s.streamedPairs.Add(uint64(len(res.Pairs)))
			summary := res.Summary
			summary.Planner = jp.plan
			s.recordPlannerSample(ctx, a, b, p, jp, summary, time.Since(start), true, false)
			return &JoinOutcome{Summary: summary, Cached: true}, nil
		}
	}

	// Tee emitted pairs into a bounded cache-fill buffer. The engine layer
	// serializes emit calls and completes them before the join returns, so
	// the closure state needs no extra synchronization.
	maxCache := s.cache.MaxPairs()
	caching := !p.NoCache
	var buf []transformers.Pair
	var streamed uint64
	emitFailed := false
	// When traced, the accumulated time spent inside the consumer's emit is
	// attached to the execute span afterwards as one "stream-emit" child —
	// two clock reads per pair, and none at all untraced.
	traced := obs.Enabled(ctx)
	var emitDur time.Duration
	ex, err := s.executeJoin(ctx, a, b, p, jp, func(ctx context.Context, algo string, ea, eb []transformers.Element, opt engine.Options) (*engine.Result, error) {
		return engine.RunStream(ctx, algo, ea, eb, opt, func(pr transformers.Pair) error {
			if caching {
				if len(buf) < maxCache {
					buf = append(buf, pr)
				} else {
					caching, buf = false, nil // over threshold: never cached
				}
			}
			var emitErr error
			if traced {
				t0 := time.Now()
				emitErr = emit(pr)
				emitDur += time.Since(t0)
			} else {
				emitErr = emit(pr)
			}
			if emitErr != nil {
				emitFailed = true
				return emitErr
			}
			streamed++ // delivered pairs only, like the cache-replay path
			return nil
		})
	})
	if ex.span != nil {
		ex.span.Record("stream-emit", emitDur).Add("pairs", int64(streamed))
	}
	s.streamedPairs.Add(streamed)
	if err != nil {
		// aborted_streams means the consumer ended a stream that had begun:
		// its emit failed, or its context went away after pairs flowed.
		// Server-side execution failures and cancellations before the first
		// pair (e.g. a client giving up while queued) are not aborts.
		ctxGone := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
		if emitFailed || (streamed > 0 && ctxGone) {
			s.abortedStreams.Add(1)
		}
		return nil, err
	}
	summary := s.summarize(jp.algo, ex.res)
	summary.Delta = ex.delta
	if caching {
		s.storeResult(ex, &CachedJoin{Pairs: buf, Summary: summary})
	}
	summary.Planner = jp.plan
	summary.Stale = ex.stale
	s.recordPlannerSample(ctx, a, b, p, jp, summary, time.Since(start), false, ex.part != nil && ex.part.Hit)
	return &JoinOutcome{Summary: summary}, nil
}

// RangeQuery returns the elements of a cataloged dataset intersecting the
// query box. The hot path — index already built — bypasses the join pool
// entirely (a few page reads, interactive latency); only a cold index whose
// rebuild the query would trigger goes through pool admission, so range
// traffic against evicted datasets cannot stampede unbounded builds.
func (s *Service) RangeQuery(ctx context.Context, dataset string, query transformers.Box) ([]transformers.Element, transformers.RangeStats, error) {
	s.rangeQueries.Add(1)
	h, ok, err := s.cat.TryAcquire(dataset, 0)
	if err != nil {
		return nil, transformers.RangeStats{}, err
	}
	if !ok {
		if err := s.pool.Do(ctx, admission(ctx, 1), func() error {
			var aerr error
			h, aerr = s.cat.Acquire(ctx, dataset, 0)
			return aerr
		}); err != nil {
			s.noteOutcome(ctx, err, 0, false)
			return nil, transformers.RangeStats{}, err
		}
	}
	s.noteOutcome(ctx, nil, h.Retries, h.Stale)
	defer h.Release()
	return h.Index.RangeQuery(query)
}

// Stats is the /stats document.
// Stats marshals deterministically: encoding/json emits Go maps with sorted
// keys, so the engine/tenant maps scrape byte-stably — asserted by test, do
// not replace the maps with types whose marshalling is insertion-ordered.
type Stats struct {
	UptimeMS float64 `json:"uptime_ms"`
	// UptimeS is the whole-second uptime — the stable field for scrapers
	// that want a coarse monotone counter rather than a float.
	UptimeS      int64  `json:"uptime_s"`
	Joins        uint64 `json:"joins"`
	RangeQueries uint64 `json:"range_queries"`
	// Appends counts append requests, AppendedElements the elements they
	// landed; DeltaJoins counts executed joins that composed a non-empty
	// delta (catalog stats carry the merge counters).
	Appends          uint64 `json:"appends"`
	AppendedElements uint64 `json:"appended_elements"`
	DeltaJoins       uint64 `json:"delta_joins"`
	// AutoJoins counts joins that went through the planner; EngineJoins
	// counts executed (non-cached) joins per engine.
	AutoJoins   uint64            `json:"auto_joins"`
	EngineJoins map[string]uint64 `json:"engine_joins"`
	// StreamedPairs counts pairs delivered to streaming consumers (cache
	// replays included); AbortedStreams counts streaming joins that ended
	// early — consumer write failure or mid-stream disconnect.
	StreamedPairs  uint64 `json:"streamed_pairs"`
	AbortedStreams uint64 `json:"aborted_streams"`
	// Shard aggregates fan-out activity across executed sharded joins.
	Shard ShardAggregate `json:"shard"`
	// Algorithms lists the engines a join may name, plus "auto";
	// DefaultAlgorithm is what an unnamed request gets.
	Algorithms       []string      `json:"algorithms"`
	DefaultAlgorithm string        `json:"default_algorithm"`
	Catalog          CatalogStats  `json:"catalog"`
	Cache            CacheStats    `json:"cache"`
	Pool             PoolStats     `json:"pool"`
	Datasets         []DatasetInfo `json:"datasets"`
	PageSize         int           `json:"page_size"`
	// Tenants merges pool admission counters with the service's
	// resilience counters, per tenant.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's /stats document.
type TenantStats struct {
	Admitted       uint64 `json:"admitted"`
	Queued         int    `json:"queued"`
	Shed           uint64 `json:"shed"`
	DeadlineAborts uint64 `json:"deadline_aborts"`
	Retries        uint64 `json:"retries"`
	LastGoodServes uint64 `json:"last_good_serves"`
}

// ShardAggregate is the /stats roll-up of sharded executions.
type ShardAggregate struct {
	// Joins counts executed (non-cached) sharded joins; TilesRun the tiles
	// they actually executed.
	Joins    uint64 `json:"joins"`
	TilesRun uint64 `json:"tiles_run"`
	// Replicated counts boundary element copies; DedupDrops the duplicate
	// pairs reference-point dedup discarded.
	Replicated uint64 `json:"replicated"`
	DedupDrops uint64 `json:"dedup_drops"`
}

// Stats returns a snapshot of service activity.
func (s *Service) Stats() Stats {
	pageSize := s.cfg.PageSize
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	s.engineMu.Lock()
	engineJoins := make(map[string]uint64, len(s.engineJoins))
	for k, v := range s.engineJoins {
		engineJoins[k] = v
	}
	s.engineMu.Unlock()

	pool := s.pool.Stats()
	tenants := make(map[string]TenantStats, len(pool.Tenants))
	for name, tp := range pool.Tenants {
		tenants[name] = TenantStats{Admitted: tp.Admitted, Queued: tp.Queued, Shed: tp.Shed}
	}
	s.tenantMu.Lock()
	for name, tc := range s.tenants {
		ts := tenants[name]
		ts.DeadlineAborts = tc.deadlineAborts
		ts.Retries = tc.retries
		ts.LastGoodServes = tc.lastGoodServes
		tenants[name] = ts
	}
	s.tenantMu.Unlock()
	if len(tenants) == 0 {
		tenants = nil
	}
	return Stats{
		UptimeMS:         float64(time.Since(s.start)) / float64(time.Millisecond),
		UptimeS:          int64(time.Since(s.start) / time.Second),
		Joins:            s.joins.Load(),
		RangeQueries:     s.rangeQueries.Load(),
		Appends:          s.appends.Load(),
		AppendedElements: s.appendedElements.Load(),
		DeltaJoins:       s.deltaJoins.Load(),
		AutoJoins:        s.autoJoins.Load(),
		EngineJoins:      engineJoins,
		StreamedPairs:    s.streamedPairs.Load(),
		AbortedStreams:   s.abortedStreams.Load(),
		Shard: ShardAggregate{
			Joins:      s.shardJoins.Load(),
			TilesRun:   s.shardTiles.Load(),
			Replicated: s.shardReplicated.Load(),
			DedupDrops: s.shardDedupDrops.Load(),
		},
		Algorithms:       append(engine.Names(), AlgorithmAuto),
		DefaultAlgorithm: s.cfg.DefaultAlgorithm,
		Catalog:          s.cat.Stats(),
		Cache:            s.cache.Stats(),
		Pool:             pool,
		Datasets:         s.cat.Datasets(),
		PageSize:         pageSize,
		Tenants:          tenants,
	}
}

// Health is the /healthz document: ok, or degraded with the reasons — a
// tenant queue actively shedding, or a dataset serving a stale last-good
// version while its build fails.
type Health struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
}

// Health reports serving health for /healthz.
func (s *Service) Health() Health {
	reasons := append(s.pool.Shedding(s.cfg.ShedWindow), s.cat.Degraded()...)
	if len(reasons) == 0 {
		return Health{Status: "ok"}
	}
	return Health{Status: "degraded", Reasons: reasons}
}

// DefaultTimeout returns the server-default request deadline (0 = none).
func (s *Service) DefaultTimeout() time.Duration { return s.cfg.DefaultTimeout }
