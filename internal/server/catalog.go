// Package server is the spatial query serving layer: a concurrency-safe
// catalog of named datasets and their built TRANSFORMERS indexes, an LRU
// cache of join results, a tenant-fair admission pool for join execution, and
// the HTTP handlers of the spatialjoind daemon.
//
// The paper's index is built once per dataset and reused across any number
// of joins (§III); the catalog turns that property into a serving primitive:
// clients upload or generate datasets once, then issue joins, distance joins
// and range queries against the built indexes for as long as the daemon
// lives. A dataset version has one index, which lives as long as the version
// does; a distance join reads it through a view grown by half the distance
// (§VIII), made per request, so no distance builds, copies or holds anything.
// Builds are single-flight (concurrent requests for the same index wait for
// one build) and retry transient storage faults with jittered backoff; while
// a replacement build keeps failing, the catalog serves the last-good dataset
// version instead of erroring.
//
// The in-memory engine's index belongs to a pair of datasets rather than to
// one: the stripe partition of (A, B, distance) is built by the first inmem
// join of that pair's current state and reused by every later one
// (partition.go). Partitions are what the catalog's cap bounds — pinned while
// joins run on them, evicted LRU beyond it — and a write to either dataset
// drops its partitions at once.
package server

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/engine/planner"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/transformers"
)

// ErrUnknownDataset is returned when a query names a dataset that was never
// uploaded (or was deleted).
var ErrUnknownDataset = errors.New("server: unknown dataset")

// ErrMergeInFlight is returned by MergeDelta when another merge of the same
// dataset is still running — merges are single-flight per dataset.
var ErrMergeInFlight = errors.New("server: delta merge already in flight")

// DefaultMaxIndexes caps the resident pair partitions — the inmem engine's
// index of a dataset pair — the catalog keeps before evicting cold ones. A
// dataset's own index is not counted: it is the dataset.
const DefaultMaxIndexes = 64

// BuildError reports an index build that failed even after retrying.
type BuildError struct {
	// Attempts is the number of build attempts made (retries + 1).
	Attempts int
	// Err is the last attempt's error.
	Err error
}

func (e *BuildError) Error() string {
	return fmt.Sprintf("server: index build failed after %d attempts: %v", e.Attempts, e.Err)
}

func (e *BuildError) Unwrap() error { return e.Err }

// Catalog maps dataset names to raw elements and the index built over them,
// one per dataset version, built at most once concurrently.
type Catalog struct {
	mu         sync.Mutex
	maxIndexes int
	pageSize   int
	clock      uint64
	datasets   map[string]*dataset
	// partitions holds the resident inmem pair partitions (partition.go).
	partitions map[partKey]*partEntry
	retry      RetryPolicy
	// storeFactory builds the page store behind each index build attempt
	// (a fresh store per attempt, so a half-written store from a failed
	// attempt is never reused). Nil selects an in-memory store; tests and
	// the -faults flag install fault-injecting factories here.
	storeFactory func(pageSize int) storage.Store

	builds         uint64
	evictions      uint64
	retries        uint64
	lastGoodServes uint64
	acquires       uint64
	indexHits      uint64
	appends        uint64
	merges         uint64
	mergeFailures  uint64

	// buildObserver, when set, receives every index build's duration and
	// whether it succeeded — the observability seam for build histograms.
	// Called outside the catalog lock.
	buildObserver func(d time.Duration, ok bool)
	// writeObserver, when set, is told the name of every dataset a write
	// (Put, Append, a merge install) just changed, so the owner of state
	// keyed by dataset version and epoch — the service's join cache — can
	// drop what became unreachable. Called outside the catalog lock.
	writeObserver func(name string)
}

// CatalogStats is a point-in-time snapshot of catalog activity.
type CatalogStats struct {
	Datasets int `json:"datasets"`
	// Indexes counts the generations holding a built index (a dataset's
	// current one, plus its last-good one while a replacement is failing);
	// Builds the index and partition builds started; Evictions the partitions
	// evicted by the cap.
	Indexes   int    `json:"indexes"`
	Builds    uint64 `json:"builds"`
	Evictions uint64 `json:"evictions"`
	// Retries counts index build attempts beyond each build's first;
	// LastGoodServes counts acquisitions satisfied by a stale last-good
	// generation while the current one was failing to build.
	Retries        uint64 `json:"retries"`
	LastGoodServes uint64 `json:"last_good_serves"`
	// Acquires counts Acquire and AcquirePartition calls; IndexHits the ones
	// satisfied by an already-present entry (possibly waiting on its
	// in-flight build) rather than starting a build — the index-cache hit
	// ratio's numerator.
	Acquires  uint64 `json:"acquires"`
	IndexHits uint64 `json:"index_hits"`
	// Partitions counts the resident inmem pair partitions (what the cap
	// bounds) and PartitionBytes their heap footprint.
	Partitions     int   `json:"partitions"`
	PartitionBytes int64 `json:"partition_bytes"`
	// DeltaElements is the current total of elements buffered in append
	// deltas across all datasets; Appends counts Append calls, Merges
	// completed delta compactions, MergeFailures compactions whose combined
	// build failed (the delta is retained — last-good semantics).
	DeltaElements int    `json:"delta_elements"`
	Appends       uint64 `json:"appends"`
	Merges        uint64 `json:"merges"`
	MergeFailures uint64 `json:"merge_failures"`
}

// DatasetInfo describes one cataloged dataset for /stats, including the
// planner signals cached for it.
type DatasetInfo struct {
	Name     string `json:"name"`
	Elements int    `json:"elements"`
	Version  uint64 `json:"version"`
	// Indexes is 1 once the current version's index is built or building.
	Indexes int `json:"indexes"`
	// Degraded marks a dataset whose current version is failing to build
	// (queries may be served from the last-good version).
	Degraded bool `json:"degraded,omitempty"`
	// SkewCV and ClusterFraction are the planner's cached distribution
	// signals (see planner.DatasetStats).
	SkewCV          float64 `json:"skew_cv"`
	ClusterFraction float64 `json:"cluster_fraction"`
	// DeltaElements is the number of appended elements buffered in the
	// current generation's delta (awaiting merge); DeltaEpoch counts the
	// appends this generation has absorbed — the cache-key component that
	// invalidates join results the moment new elements land.
	DeltaElements int    `json:"delta_elements,omitempty"`
	DeltaEpoch    uint64 `json:"delta_epoch,omitempty"`
}

// generation is one uploaded version of a dataset: its elements, planner
// fingerprint and index. The catalog keeps at most two per dataset: the
// current one, and — while the current one has never built successfully — the
// last-good predecessor, served stale when current builds fail.
type generation struct {
	// elems is the generation's element multiset, which never changes. The
	// slice header does, once: the index build orders a copy and keeps it as
	// its data pages, and finishBuild installs that copy here in place of the
	// one it was taken from. Every access to the header is under the catalog
	// lock; the arrays behind it, old and new, are never written once
	// installed, so a header taken under the lock may be read outside it — and
	// must only be read: the index's pages are it.
	elems   []transformers.Element
	version uint64
	stats   planner.DatasetStats
	// index is the generation's one index, built or building; nil until the
	// first Acquire and again after a failed build, so the next one retries.
	index *idxEntry
	// delta is the append buffer: elements landed after this generation's
	// elems were registered, visible to joins through delta composition and
	// compacted into a successor generation by MergeDelta. Whole batches
	// are appended under the catalog lock, so any (len, epoch) snapshot
	// taken under the lock is a consistent all-or-nothing prefix — append
	// never rewrites delta[0:len), only extends (or, on growth, copies to a
	// fresh array), so a snapshotted header stays immutable.
	delta []transformers.Element
	// deltaEpoch counts the appends absorbed since this generation (or the
	// lineage it was merged from) was registered; a merge carries it into
	// the successor. Join cache keys include it, so an append invalidates
	// cached results immediately without a version bump.
	deltaEpoch uint64
}

type dataset struct {
	name string
	cur  *generation
	// last is the previous healthy generation, kept as the stale fallback
	// until cur proves healthy; nil otherwise.
	last *generation
	// failing is the latest build failure of cur (nil once a build
	// succeeds or a new version is uploaded). While set, acquisitions fall
	// back to last and health reports the dataset degraded.
	failing error
	// merging marks an in-flight delta merge (single-flight per dataset);
	// mergeErr is the last merge failure, cleared when a merge succeeds or
	// the dataset is replaced. While set, health reports the dataset
	// degraded — the delta keeps serving, but it is not compacting.
	merging  bool
	mergeErr error
}

// idxEntry is one built (or building) index. ready is closed when the build
// finishes, after idx and err are set.
type idxEntry struct {
	ready chan struct{}
	idx   *transformers.Index
	err   error
}

// built returns the generation's index once its build has succeeded, else
// nil. The caller holds c.mu.
func (g *generation) built() *transformers.Index {
	if e := g.index; e != nil && isReady(e.ready) && e.err == nil {
		return e.idx
	}
	return nil
}

// NewCatalog returns an empty catalog. maxIndexes <= 0 selects
// DefaultMaxIndexes; pageSize <= 0 selects the storage default.
func NewCatalog(maxIndexes, pageSize int) *Catalog {
	if maxIndexes <= 0 {
		maxIndexes = DefaultMaxIndexes
	}
	return &Catalog{
		maxIndexes: maxIndexes,
		pageSize:   pageSize,
		datasets:   make(map[string]*dataset),
		partitions: make(map[partKey]*partEntry),
	}
}

// SetStoreFactory overrides the page store behind index builds (nil restores
// the in-memory default). Each build attempt gets a fresh store from the
// factory.
func (c *Catalog) SetStoreFactory(f func(pageSize int) storage.Store) {
	c.mu.Lock()
	c.storeFactory = f
	c.mu.Unlock()
}

// SetBuildObserver installs the build-duration callback (nil disables).
// Set it before serving traffic; the callback runs outside the catalog lock.
func (c *Catalog) SetBuildObserver(f func(d time.Duration, ok bool)) {
	c.mu.Lock()
	c.buildObserver = f
	c.mu.Unlock()
}

// SetWriteObserver installs the dataset-write callback (nil disables). Set it
// before serving traffic; the callback runs outside the catalog lock, after
// the write is visible and the catalog has dropped its own derived state.
func (c *Catalog) SetWriteObserver(f func(name string)) {
	c.mu.Lock()
	c.writeObserver = f
	c.mu.Unlock()
}

// invalidateLocked is the one invalidation every write path (Put, Append, a
// merge install) makes while it still holds c.mu: it drops, at once, the
// resident partitions built over gen's overwritten state, and returns the
// call that tells the write observer to drop what it keyed by that state —
// to be made once c.mu is released.
func (c *Catalog) invalidateLocked(name string, gen *generation) (notify func()) {
	if gen != nil {
		c.dropPartitionsLocked(gen)
	}
	observer := c.writeObserver
	return func() {
		if observer != nil {
			observer(name)
		}
	}
}

// dropPartitionsLocked forgets every partition, built or building, that reads
// gen's arrays. Joins running on one keep it alive until they return.
func (c *Catalog) dropPartitionsLocked(gen *generation) {
	for k := range c.partitions {
		if k.genA == gen || k.genB == gen {
			delete(c.partitions, k)
		}
	}
}

// SetRetryPolicy overrides the build retry policy (zero fields take
// defaults).
func (c *Catalog) SetRetryPolicy(p RetryPolicy) {
	c.mu.Lock()
	c.retry = p
	c.mu.Unlock()
}

// Put registers (or replaces) a named dataset. The previous generation stays
// behind as the last-good fallback if it ever built successfully; its index
// stays valid for the queries running on it, and cached join results
// keyed by the old version can never be served for the new one because the
// version is bumped. The element slice is owned by the catalog afterwards.
func (c *Catalog) Put(name string, elems []transformers.Element) uint64 {
	// The O(n) statistics pass runs before the lock: planning signals are
	// version-scoped and must not stall concurrent catalog traffic.
	stats := planner.Analyze(elems)
	c.mu.Lock()
	ds := c.datasets[name]
	if ds == nil {
		ds = &dataset{name: name}
		c.datasets[name] = ds
	}
	version := uint64(1)
	prev := ds.cur
	if prev != nil {
		version = prev.version + 1
		if prev.built() != nil {
			ds.last = prev // only a generation that proved buildable is a fallback
		}
	}
	ds.cur = &generation{
		elems:   elems,
		version: version,
		stats:   stats,
	}
	ds.failing = nil
	ds.mergeErr = nil
	notify := c.invalidateLocked(name, prev)
	c.mu.Unlock()
	notify()
	return version
}

// AppendInfo reports one append (or the append state after a merge trigger).
type AppendInfo struct {
	Name string `json:"name"`
	// Appended is the element count this call added; DeltaElements the
	// delta buffer's total afterwards.
	Appended      int `json:"appended"`
	DeltaElements int `json:"delta_elements"`
	// Version is the (unchanged) dataset version the delta rides on — only
	// a merge bumps it; DeltaEpoch is the post-append epoch, the cache-key
	// component that makes the append visible immediately.
	Version    uint64 `json:"version"`
	DeltaEpoch uint64 `json:"delta_epoch"`
	// MergeTriggered is set by the service layer when this append pushed
	// the delta past the merge threshold and a background merge started.
	MergeTriggered bool `json:"merge_triggered,omitempty"`
}

// Append lands elements in the dataset's delta buffer: they become visible
// to joins immediately (delta composition) without rebuilding the main
// index, and the delta epoch bump invalidates cached join results. The
// batch is all-or-nothing — concurrent snapshots see none or all of it,
// never a torn prefix. The element slice is copied; the caller keeps
// ownership of its own.
func (c *Catalog) Append(name string, elems []transformers.Element) (AppendInfo, error) {
	c.mu.Lock()
	ds, err := c.datasetLocked(name)
	if err != nil {
		c.mu.Unlock()
		return AppendInfo{}, err
	}
	gen := ds.cur
	notify := func() {}
	if len(elems) > 0 {
		gen.delta = append(gen.delta, elems...)
		gen.deltaEpoch++
		c.appends++
		notify = c.invalidateLocked(name, gen)
	}
	info := AppendInfo{
		Name:          name,
		Appended:      len(elems),
		DeltaElements: len(gen.delta),
		Version:       gen.version,
		DeltaEpoch:    gen.deltaEpoch,
	}
	c.mu.Unlock()
	notify()
	return info, nil
}

// Handle is one acquisition of a dataset's index, as the join at the acquired
// distance reads it.
type Handle struct {
	// gen is the generation the handle serves — DeltaView reads its base
	// elements and delta buffer, so a join composes against exactly the
	// generation whose index it runs on even if a merge or replacement
	// installs a successor mid-join.
	gen *generation
	// Index is the generation's index grown by half the acquired distance
	// (the index itself at distance 0).
	Index   *transformers.Index
	Name    string
	Version uint64
	// Stale marks a handle served from the last-good generation while the
	// current one is failing to build; Version is then the stale
	// generation's version.
	Stale bool
	// Retries is the number of build retries this acquisition performed
	// (0 for cache hits and waiters).
	Retries int
}

// Release does nothing: an index lives as long as its generation and the
// collector frees both when the last join over them returns. It remains for
// the callers that pair every Acquire with it.
func (h *Handle) Release() {}

// newHandle views gen's built index at distance expand; stale says gen is the
// last-good generation, not the current one. Called outside c.mu: making the
// view is a pass over the index's descriptors.
func newHandle(name string, gen *generation, idx *transformers.Index, expand float64, stale bool) *Handle {
	return &Handle{gen: gen, Index: idx.Grown(expand / 2), Name: name, Version: gen.version, Stale: stale}
}

func validExpand(expand float64) error {
	// A negative distance has no meaning. NaN compares false with everything,
	// so it would be served as distance 0 without a word; an infinite one
	// grows every descriptor to Inf - Inf.
	if expand < 0 || math.IsNaN(expand) || math.IsInf(expand, 0) {
		return fmt.Errorf("server: invalid expansion %v", expand)
	}
	return nil
}

// Acquire returns a handle on the index of dataset name as a distance join at
// expand reads it — every box grown by expand/2 per side, the index itself at
// 0 — building the dataset's index first if it has none. A distance never
// builds: the handle's view is made from the one index (core.Index.Grown).
// Concurrent acquisitions share one build (single-flight) including its
// retries; transient build failures are retried with jittered backoff, and
// when the build still fails, the last-good generation's index is served stale
// if it exists. ctx bounds the backoff waits of a build this caller performs
// and its wait on another caller's in-flight build, which goes on for the
// other waiters.
func (c *Catalog) Acquire(ctx context.Context, name string, expand float64) (*Handle, error) {
	if err := validExpand(expand); err != nil {
		return nil, err
	}
	c.mu.Lock()
	ds, err := c.datasetLocked(name)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	gen := ds.cur
	c.acquires++
	e, retries := gen.index, 0
	if e != nil {
		c.indexHits++
		c.mu.Unlock()
		select {
		case <-e.ready: // single-flight: wait for the (possibly in-flight) build
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	} else {
		// First acquirer builds; later ones take the branch above and wait.
		e = &idxEntry{ready: make(chan struct{})}
		gen.index = e
		c.builds++
		base := gen.elems
		c.mu.Unlock()

		// BuildIndex reorders its input in place and keeps it as the index's
		// data pages, so it gets a private copy, taken outside the lock: the
		// array behind a generation's elems is never written once installed.
		elems := slices.Clone(base)
		idx, span, n, err := c.buildIndex(ctx, "catalog-build", elems)
		span.Add("retries", int64(n))
		c.finishBuild(ds, gen, e, idx, elems, err, n)
		retries = n
	}
	if e.err != nil {
		if fb := c.lastGood(name, gen, expand); fb != nil {
			return fb, nil
		}
		return nil, e.err
	}
	h := newHandle(name, gen, e.idx, expand, false)
	h.Retries = retries
	return h, nil
}

// buildIndex is the one index build under Acquire and MergeDelta: elems
// (reordered in place) indexed on a store from the catalog's factory, transient
// storage failures retried under its policy, the outcome reported to its build
// observer and a failure wrapped as a *BuildError. The span, named by the
// caller, is returned ended for the caller's counters.
func (c *Catalog) buildIndex(ctx context.Context, spanName string, elems []transformers.Element) (idx *transformers.Index, span *obs.Span, retries int, err error) {
	c.mu.Lock()
	pageSize, policy, factory, observer := c.pageSize, c.retry, c.storeFactory, c.buildObserver
	c.mu.Unlock()
	_, span = obs.Start(ctx, spanName)
	start := time.Now()
	err, retries = retryTransient(ctx, policy, storage.IsTransient, func() error {
		var st storage.Store
		if factory != nil {
			st = factory(pageSize)
		}
		// BuildIndex only reads elems after the STR reorder, and a failed
		// attempt leaves them reordered but intact — safe to reuse across
		// attempts.
		idx, err = transformers.BuildIndex(elems, transformers.IndexOptions{PageSize: pageSize, Store: st})
		return err
	})
	span.End()
	if observer != nil {
		observer(time.Since(start), err == nil)
	}
	if err != nil {
		err = &BuildError{Attempts: retries + 1, Err: err}
	}
	return idx, span, retries, err
}

// lastGood returns a stale handle on dataset name's last-good generation, at
// any distance, if failedGen is still the current generation and a last-good
// one exists (it is kept only once built).
func (c *Catalog) lastGood(name string, failedGen *generation, expand float64) *Handle {
	c.mu.Lock()
	ds := c.datasets[name]
	if ds == nil || ds.cur != failedGen || ds.last == nil {
		c.mu.Unlock()
		return nil
	}
	gen, idx := ds.last, ds.last.built() // Put keeps only a built generation as last
	c.lastGoodServes++
	c.mu.Unlock()
	return newHandle(name, gen, idx, expand, true)
}

// TryAcquire returns a handle only when the dataset's index is already built
// — the current generation's, or stale the last-good one's while the current
// generation is failing. ok=false means the caller must go through Acquire
// (and should do so under build admission control — TryAcquire never builds
// and never blocks on an in-flight build).
func (c *Catalog) TryAcquire(name string, expand float64) (*Handle, bool, error) {
	if err := validExpand(expand); err != nil {
		return nil, false, err
	}
	c.mu.Lock()
	ds, err := c.datasetLocked(name)
	if err != nil {
		c.mu.Unlock()
		return nil, false, err
	}
	gen, idx, failing := ds.cur, ds.cur.built(), ds.failing != nil
	c.mu.Unlock()
	if idx != nil {
		return newHandle(name, gen, idx, expand, false), true, nil
	}
	if failing {
		if fb := c.lastGood(name, gen, expand); fb != nil {
			return fb, true, nil
		}
	}
	return nil, false, nil
}

// finishBuild publishes a build outcome and wakes the waiters. A failed build
// is forgotten so the next Acquire retries; a success on the current
// generation clears the dataset's failing state and drops the stale fallback.
// indexed is the copy of the generation's elements the build ordered and now
// reads its pages from: it becomes gen.elems, so the dataset is held once, and
// the array it replaces goes when the readers that took its header before —
// a partition built in between among them, until the next write — are done.
func (c *Catalog) finishBuild(ds *dataset, gen *generation, e *idxEntry, idx *transformers.Index, indexed []transformers.Element, err error, retries int) {
	c.mu.Lock()
	e.idx, e.err = idx, err
	close(e.ready)
	c.retries += uint64(retries)
	if err != nil {
		gen.index = nil
		if ds.cur == gen {
			ds.failing = err
		}
	} else {
		gen.elems = indexed
		if ds.cur == gen {
			ds.failing = nil
			ds.last = nil // cur proved healthy; the fallback has served its purpose
		}
	}
	c.mu.Unlock()
}

// Degraded lists the datasets whose current generation is failing to build,
// for health reporting.
func (c *Catalog) Degraded() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for name, ds := range c.datasets {
		if ds.mergeErr != nil {
			out = append(out, fmt.Sprintf("dataset %q: delta merge failing, %d delta elements retained: %v",
				name, len(ds.cur.delta), ds.mergeErr))
		}
		if ds.failing == nil {
			continue
		}
		if ds.last != nil {
			out = append(out, fmt.Sprintf("dataset %q: serving last-good version %d (build failing: %v)",
				name, ds.last.version, ds.failing))
		} else {
			out = append(out, fmt.Sprintf("dataset %q: builds failing: %v", name, ds.failing))
		}
	}
	sort.Strings(out)
	return out
}

func isReady(ready chan struct{}) bool {
	select {
	case <-ready:
		return true
	default:
		return false
	}
}

// datasetLocked returns the named dataset, or ErrUnknownDataset for a name
// never registered. The caller holds c.mu.
func (c *Catalog) datasetLocked(name string) (*dataset, error) {
	if ds := c.datasets[name]; ds != nil {
		return ds, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownDataset, name)
}

// joinInput snapshots what planning a join reads of a dataset — the planner
// statistics cached per version, the version they describe, the delta epoch
// and the delta size — from one generation under one lock, so a Put between
// two reads can never pair one version's statistics with the next one's
// number. It is a map lookup that acquires no index. A replacement, append or
// merge racing between this and the later acquisition only turns a hit into a
// safe miss (the stored key uses the state actually served).
func (c *Catalog) joinInput(name string) (joinInput, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ds, err := c.datasetLocked(name)
	if err != nil {
		return joinInput{}, err
	}
	gen := ds.cur
	return joinInput{name: name, stats: gen.stats, version: gen.version, epoch: gen.deltaEpoch, delta: len(gen.delta)}, nil
}

// Snapshot returns a private combined copy of a dataset's base elements plus
// its delta buffer, with the version, delta epoch and delta size the copy
// corresponds to — one atomic consistent view. The service never copies a
// dataset to join it; the benchmark's in-process layer rows
// (benchmark/layers.go) are the one caller, timing what such a copy costs.
func (c *Catalog) Snapshot(name string) (elems []transformers.Element, version, epoch uint64, deltaLen int, err error) {
	c.mu.Lock()
	ds, err := c.datasetLocked(name)
	if err != nil {
		c.mu.Unlock()
		return nil, 0, 0, 0, err
	}
	gen := ds.cur
	base := gen.elems
	// Full-slice-expression header: appends past len land at indexes this
	// snapshot never reads (or on a fresh array), so the copy below is safe
	// outside the lock.
	delta := gen.delta[:len(gen.delta):len(gen.delta)]
	version, epoch = gen.version, gen.deltaEpoch
	c.mu.Unlock()
	out := make([]transformers.Element, 0, len(base)+len(delta))
	out = append(out, base...)
	out = append(out, delta...)
	return out, version, epoch, len(delta), nil
}

// DeltaView returns the handle's generation's raw base elements, its delta
// buffer, and the delta epoch that buffer corresponds to. Both slices are the
// catalog's own storage — base is the base index's data pages, delta the
// capped header of the append buffer, whose elements are never rewritten
// (later appends land past its length or on a fresh array). Both are
// read-only: callers must pass them only to engines that neither reorder nor
// write their inputs (the inmem delta sub-joins qualify; the distance path
// copies before expanding either way). Reading through the handle's
// generation — not the dataset's current one — keeps the composition
// consistent with the index the join actually runs on, even if a merge
// installs a successor generation mid-join.
func (c *Catalog) DeltaView(h *Handle) (base, delta []transformers.Element, epoch uint64) {
	if h == nil || h.gen == nil {
		return nil, nil, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	gen := h.gen
	return gen.elems, gen.delta[:len(gen.delta):len(gen.delta)], gen.deltaEpoch
}

// MergeDelta compacts a dataset's delta buffer into its main index: the
// base and delta elements are combined, indexed (with the same retry policy,
// store factory and build observer regular builds use) and installed as a
// new generation whose version is bumped — the LSM-style background merge.
// Merges are single-flight per dataset (ErrMergeInFlight otherwise).
// Elements appended while the merge runs carry over into the new
// generation's delta, and the delta epoch carries with them. On build
// failure the delta is retained untouched — joins keep composing against it
// (last-good semantics) and health reports the dataset degraded until a
// merge succeeds. Returns the number of delta elements compacted (0 when
// the delta was empty or the dataset was replaced mid-merge).
func (c *Catalog) MergeDelta(ctx context.Context, name string) (int, error) {
	c.mu.Lock()
	ds, err := c.datasetLocked(name)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	if ds.merging {
		c.mu.Unlock()
		return 0, ErrMergeInFlight
	}
	gen := ds.cur
	n := len(gen.delta)
	if n == 0 {
		c.mu.Unlock()
		return 0, nil
	}
	ds.merging = true
	// Header only: append never rewrites delta[0:n), so the copy below is
	// safe outside the lock, like the base's.
	base, delta := gen.elems, gen.delta[:n:n]
	c.mu.Unlock()

	// The copy, the O(n) statistics pass and the index build all run outside
	// the lock; Analyze runs first because BuildIndex reorders merged in
	// place. The reordered slice is both the new generation's elems and its
	// base index's data pages — one array, which no reader writes to (every
	// one copies before building).
	merged := append(append(make([]transformers.Element, 0, len(base)+n), base...), delta...)
	stats := planner.Analyze(merged)
	idx, span, retries, buildErr := c.buildIndex(ctx, "delta-merge", merged)
	span.Add("elements", int64(n))
	span.Add("retries", int64(retries))

	c.mu.Lock()
	ds.merging = false
	c.retries += uint64(retries)
	c.builds++
	if ds.cur != gen {
		// A Put replaced the dataset mid-merge: the merged snapshot
		// describes a lineage that no longer exists. Discard it quietly —
		// the replacement carries its own elements.
		c.mu.Unlock()
		return 0, nil
	}
	if buildErr != nil {
		c.mergeFailures++
		ds.mergeErr = buildErr
		c.mu.Unlock()
		return 0, buildErr
	}
	e := &idxEntry{ready: make(chan struct{}), idx: idx}
	close(e.ready)
	ds.cur = &generation{
		elems:   merged,
		version: gen.version + 1,
		stats:   stats,
		index:   e,
		// Appends that landed during the merge carry over; the epoch
		// travels with them so cache keys stay content-faithful.
		delta:      append([]transformers.Element(nil), gen.delta[n:]...),
		deltaEpoch: gen.deltaEpoch,
	}
	ds.failing = nil
	ds.mergeErr = nil
	ds.last = nil
	c.merges++
	notify := c.invalidateLocked(name, gen)
	c.mu.Unlock()
	notify()
	return n, nil
}

// Stats returns a snapshot of catalog counters.
func (c *Catalog) Stats() CatalogStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	deltaElems, indexes := 0, 0
	for _, ds := range c.datasets {
		deltaElems += len(ds.cur.delta)
		for _, gen := range []*generation{ds.cur, ds.last} {
			if gen != nil && gen.built() != nil {
				indexes++
			}
		}
	}
	parts, partBytes := c.readyPartitionsLocked()
	return CatalogStats{
		Datasets:       len(c.datasets),
		Partitions:     parts,
		PartitionBytes: partBytes,
		Indexes:        indexes,
		Builds:         c.builds,
		Evictions:      c.evictions,
		Retries:        c.retries,
		LastGoodServes: c.lastGoodServes,
		Acquires:       c.acquires,
		IndexHits:      c.indexHits,
		DeltaElements:  deltaElems,
		Appends:        c.appends,
		Merges:         c.merges,
		MergeFailures:  c.mergeFailures,
	}
}

// Datasets lists the cataloged datasets sorted by name.
func (c *Catalog) Datasets() []DatasetInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]DatasetInfo, 0, len(c.datasets))
	for _, ds := range c.datasets {
		indexes := 0
		if ds.cur.index != nil {
			indexes = 1
		}
		out = append(out, DatasetInfo{
			Name:            ds.name,
			Elements:        len(ds.cur.elems),
			Version:         ds.cur.version,
			Indexes:         indexes,
			Degraded:        ds.failing != nil || ds.mergeErr != nil,
			SkewCV:          ds.cur.stats.SkewCV,
			ClusterFraction: ds.cur.stats.ClusterFraction,
			DeltaElements:   len(ds.cur.delta),
			DeltaEpoch:      ds.cur.deltaEpoch,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
