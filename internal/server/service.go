package server

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/internal/storage"
	"repro/transformers"
)

// ErrUnknownAlgorithm is returned when a join names an engine the service
// does not serve.
var ErrUnknownAlgorithm = errors.New("server: unknown algorithm")

// AlgorithmAuto asks the planner to pick the engine from the datasets'
// cached statistics.
const AlgorithmAuto = "auto"

// ServedEngines returns the engines a join may name besides AlgorithmAuto,
// which are the ones "auto" plans over (planner.Engines): those whose index the
// catalog holds — a dataset's TRANSFORMERS index, a pair's inmem partition —
// so no request copies or indexes a dataset. The other registered engines run
// in-process only (the CLIs, the experiments and the equivalence suites).
func ServedEngines() []string { return planner.Engines() }

// CheckAlgorithm reports whether a join may name algorithm: a served engine or
// AlgorithmAuto. Any other name is an ErrUnknownAlgorithm naming the served
// engines.
func CheckAlgorithm(algorithm string) error {
	served := ServedEngines()
	if algorithm == AlgorithmAuto || slices.Contains(served, algorithm) {
		return nil
	}
	return fmt.Errorf("%w %q: the served engines are %s (or %q)",
		ErrUnknownAlgorithm, algorithm, strings.Join(served, ", "), AlgorithmAuto)
}

// Config sizes the service.
type Config struct {
	// MaxIndexes caps the resident pair partitions — the inmem engine's
	// indexes — kept in the catalog (DefaultMaxIndexes when zero).
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
	// name one: a ServedEngines entry or AlgorithmAuto ("auto", the
	// planner picks per request). engine.Transformers when empty.
	DefaultAlgorithm string
	// TenantSlots caps one tenant's concurrently executing slot units
	// while other tenants wait (0 = no per-tenant cap); TenantQueue caps
	// one tenant's waiting requests (0 = no per-tenant cap). See
	// PoolConfig.
	TenantSlots int
	TenantQueue int
	// DefaultTimeout bounds every request without its own timeout_ms
	// (0 = no default deadline).
	DefaultTimeout time.Duration
	// ShedWindow is how long after a shed event /healthz keeps reporting
	// the tenant's queue degraded (DefaultShedWindow when zero).
	ShedWindow time.Duration
	// StoreFactory overrides the page store behind catalog index builds
	// (in-memory when nil); tests install fault-injecting stores here.
	StoreFactory func() storage.Store
	// SlowJoinThreshold bounds which joins land (with their span trees) in
	// the /debug/joins ring: slower-than-threshold only. Zero selects
	// DefaultSlowJoinThreshold; negative records every join.
	SlowJoinThreshold time.Duration
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
	// DefaultCostUnitMS converts a join's price — the kernel wall its
	// engine measured on the pair — into admission slot units: a join priced
	// at N ms occupies 1 + N/DefaultCostUnitMS units, so one long join cannot
	// monopolize the pool at unit price while joins priced under it, and
	// joins of an engine not yet measured on the pair, run at unit price.
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

	// walls is the wall table Plan prices each engine by: the kernel walls of
	// executed joins per (dataset pair, distance, engine). Always non-nil;
	// fed by the planner recorder's observer.
	walls *planner.Corrector
}

// tenantCounters tallies one tenant's resilience events at the service layer.
type tenantCounters struct {
	deadlineAborts uint64
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
	if cfg.ShedWindow <= 0 {
		cfg.ShedWindow = DefaultShedWindow
	}
	if cfg.DeltaMaxElements == 0 {
		cfg.DeltaMaxElements = DefaultDeltaMaxElements
	}
	cat := NewCatalog(cfg.MaxIndexes, 0)
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
		walls:       planner.NewCorrector(),
	}
	// A write drops, in one invalidation, the dataset's resident partitions
	// (inside the catalog) and its cached join results (here).
	cat.SetWriteObserver(s.cache.DropDataset)
	s.obs = newServiceObs(s, cfg)
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

// noteOutcome attributes a failed request's outcome to its tenant: a deadline
// abort.
func (s *Service) noteOutcome(ctx context.Context, err error) {
	if !errors.Is(err, context.DeadlineExceeded) {
		return
	}
	tc := s.tenantCounter(ctx)
	s.tenantMu.Lock()
	tc.deadlineAborts++
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

// AddDataset registers (or replaces) a named dataset, its index built before
// it is installed (Catalog.Put), so the first query pays no build latency. The
// build runs under the pool's admission control — a registration storm gets
// ErrBusy like any other expensive work. The element slice is owned by the
// service afterwards. The report describes the version this call installed,
// whatever other uploads of the name land around it.
func (s *Service) AddDataset(ctx context.Context, name string, elems []transformers.Element) (BuildInfo, error) {
	return s.addDataset(ctx, name, batchOf(elems))
}

// addDataset is AddDataset of a batch: an upload as the decoder left it.
func (s *Service) addDataset(ctx context.Context, name string, b batch) (BuildInfo, error) {
	if name == "" {
		return BuildInfo{}, fmt.Errorf("server: empty dataset name")
	}
	start := time.Now()
	var gen *generation
	// Put happens inside admission: a registration rejected with ErrBusy (or
	// abandoned by the client) must not have replaced the dataset.
	if err := s.pool.Do(ctx, admission(ctx, 1), func() error {
		var err error
		gen, err = s.cat.put(name, b)
		return err
	}); err != nil {
		s.noteOutcome(ctx, err)
		return BuildInfo{}, err
	}
	br := gen.index.BuildReport()
	return BuildInfo{
		Name:            name,
		Elements:        br.Elements,
		Version:         gen.version,
		Units:           br.Units,
		Nodes:           br.Nodes,
		BuildMS:         float64(time.Since(start)) / float64(time.Millisecond),
		SkewCV:          gen.stats.SkewCV,
		ClusterFraction: gen.stats.ClusterFraction,
	}, nil
}

// Append lands the concatenation of pieces in name's delta buffer: they
// become visible to joins immediately (the next join composes them through
// delta sub-joins) without an index rebuild or a version bump. When the delta
// reaches the configured merge threshold, a background merge is triggered —
// single-flight per dataset — and the returned info notes it. Appends are
// cheap (a slice append under the catalog lock) and bypass pool admission;
// only the merge they may trigger pays for a build, at Batch priority.
func (s *Service) Append(ctx context.Context, name string, pieces ...[]transformers.Element) (AppendInfo, error) {
	info, err := s.cat.Append(name, pieces...)
	if err != nil {
		return AppendInfo{}, err
	}
	s.appends.Add(1)
	s.appendedElements.Add(uint64(info.Appended))
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

// RangeQuery returns the elements of a cataloged dataset intersecting the
// query box. It bypasses the join pool entirely: the index is built before its
// version is installed, so a query is a few page reads at interactive latency.
func (s *Service) RangeQuery(ctx context.Context, dataset string, query transformers.Box) ([]transformers.Element, transformers.RangeStats, error) {
	s.rangeQueries.Add(1)
	h, err := s.cat.Acquire(ctx, dataset, 0)
	if err != nil {
		return nil, transformers.RangeStats{}, err
	}
	return h.Index.RangeQuery(query)
}

// DefaultTimeout returns the server-default request deadline (0 = none).
func (s *Service) DefaultTimeout() time.Duration { return s.cfg.DefaultTimeout }
