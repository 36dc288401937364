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
// A version is installed built: an upload or a delta merge builds its index
// first, in one attempt on one store, and only a build that succeeds becomes
// the dataset's next version. One that fails is not retried: it changes
// nothing, the upload answers a 5xx naming the cause, a merge keeps its delta,
// and the previous version goes on serving.
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
	"repro/internal/geom"
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

// Catalog maps dataset names to raw elements and the index built over them,
// one per dataset version.
type Catalog struct {
	mu         sync.Mutex
	maxIndexes int
	clock      uint64
	datasets   map[string]*dataset
	// partitions holds the resident inmem pair partitions (partition.go).
	partitions map[partKey]*partEntry
	// storeFactory builds the page store behind each index build (a fresh
	// store per build). Nil selects an in-memory store; tests install
	// fault-injecting factories here.
	storeFactory func() storage.Store

	builds        uint64
	evictions     uint64
	acquires      uint64
	indexHits     uint64
	appends       uint64
	merges        uint64
	mergeFailures uint64

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
	// Datasets counts the cataloged datasets, each holding one built index.
	Datasets int `json:"datasets"`
	// Builds counts the index builds installed and the partition builds
	// started; Evictions the partitions evicted by the cap.
	Builds    uint64 `json:"builds"`
	Evictions uint64 `json:"evictions"`
	// Acquires counts Acquire and AcquirePartition calls; IndexHits the ones
	// satisfied by an already-present index or partition (possibly waiting on
	// the partition's in-flight build) rather than starting a build — the
	// index-cache hit ratio's numerator.
	Acquires  uint64 `json:"acquires"`
	IndexHits uint64 `json:"index_hits"`
	// Partitions counts the resident inmem pair partitions (what the cap
	// bounds) and PartitionBytes their heap footprint.
	Partitions     int   `json:"partitions"`
	PartitionBytes int64 `json:"partition_bytes"`
	// DeltaElements is the current total of elements buffered in append
	// deltas across all datasets; Appends counts Append calls, Merges
	// completed delta compactions, MergeFailures compactions whose combined
	// build failed (the delta is retained and keeps serving).
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
	// Degraded marks a dataset whose delta merge is failing (the delta keeps
	// serving, uncompacted).
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

// generation is one installed version of a dataset: its elements, planner
// fingerprint and built index.
type generation struct {
	// elems is the generation's element multiset in the order the index build
	// left it: the index's data pages are this array. It is never written once
	// installed, so it may be read outside the catalog lock — and must only be
	// read.
	elems   []transformers.Element
	version uint64
	stats   planner.DatasetStats
	// index is the generation's one index, built before it was installed.
	index *transformers.Index
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
	// merging marks an in-flight delta merge (single-flight per dataset);
	// mergeErr is the last merge failure, cleared when a merge succeeds or
	// the dataset is replaced. While set, health reports the dataset
	// degraded — the delta keeps serving, but it is not compacting.
	merging  bool
	mergeErr error
}

// NewCatalog returns an empty catalog. maxIndexes <= 0 selects
// DefaultMaxIndexes. The second parameter is unused: every index page is
// storage.DefaultPageSize bytes.
func NewCatalog(maxIndexes, _ int) *Catalog {
	if maxIndexes <= 0 {
		maxIndexes = DefaultMaxIndexes
	}
	return &Catalog{
		maxIndexes: maxIndexes,
		datasets:   make(map[string]*dataset),
		partitions: make(map[partKey]*partEntry),
	}
}

// SetStoreFactory overrides the page store behind index builds (nil restores
// the in-memory default). Each build gets a fresh store from the factory.
func (c *Catalog) SetStoreFactory(f func() storage.Store) {
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

// Put registers (or replaces) a named dataset, built: it analyzes elems and
// builds their index, and only then installs them as the dataset's next
// version. A failed build returns its error and registers, replaces and
// invalidates nothing: the previous version, if any, goes on serving. The
// element slice is owned by the catalog afterwards (the build orders it in
// place and the index reads its pages from it), and no reader sees it before
// it is installed. The replaced generation's index stays valid
// for the queries running on it, and cached join results keyed by the old
// version can never be served for the new one because the version is bumped.
// An append that lands while the replacement builds rides the generation
// being replaced, and goes with it, exactly as an append before the Put does.
func (c *Catalog) Put(name string, elems []transformers.Element) (uint64, error) {
	gen, err := c.put(name, batchOf(elems))
	if err != nil {
		return 0, err
	}
	return gen.version, nil
}

// batch is a dataset's elements as they reach the catalog: the pieces they
// arrived in, in order — an upload's decoded blocks, a merge's base and delta
// — and their bounding box, geom.MBBOf of the pieces' concatenation.
type batch struct {
	pieces [][]transformers.Element
	mbb    transformers.Box
}

// batchOf is the batch of one slice.
func batchOf(elems []transformers.Element) batch {
	return batch{pieces: [][]transformers.Element{elems}, mbb: geom.MBBOf(elems)}
}

// len returns how many elements the batch holds.
func (b batch) len() int {
	n := 0
	for _, p := range b.pieces {
		n += len(p)
	}
	return n
}

// put is Put of a batch, returning the generation it installed. A batch of
// one piece is owned by the catalog afterwards, as Put's slice is; several
// are only read, and gathered into the generation's array by the build.
func (c *Catalog) put(name string, b batch) (*generation, error) {
	gen, err := c.build(b)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	ds := c.datasets[name]
	if ds == nil {
		ds = &dataset{name: name}
		c.datasets[name] = ds
	}
	notify := c.installLocked(ds, gen)
	c.mu.Unlock()
	notify()
	return gen, nil
}

// build is the first half of the one build-then-install step under Put and
// MergeDelta: b analyzed and indexed — its pieces gathered into the one array
// the generation keeps, in STR order — in one attempt on one store from the
// catalog's factory, the outcome reported to its build observer. It returns
// the generation to install, versionless, or "server: index build: <cause>",
// which the handlers answer with a 5xx.
func (c *Catalog) build(b batch) (*generation, error) {
	// The statistics pass reads the pieces outside the lock, like the build:
	// planning signals are version-scoped and must not stall concurrent
	// catalog traffic. Beside a build of several pieces, which only reads
	// their elements, it runs on a goroutine of its own over its own copy of
	// the slice of them, which the build clears. One piece the build reorders
	// in place, so that is analyzed first.
	stats := make(chan planner.DatasetStats, 1)
	analyze := func(pieces [][]transformers.Element) { stats <- planner.AnalyzePieces(pieces, b.mbb) }
	if len(b.pieces) == 1 {
		analyze(b.pieces)
	} else {
		go analyze(slices.Clone(b.pieces))
	}
	c.mu.Lock()
	factory, observer := c.storeFactory, c.buildObserver
	c.mu.Unlock()
	var st storage.Store
	if factory != nil {
		st = factory()
	}
	start := time.Now()
	idx, elems, err := transformers.BuildIndexPieces(b.pieces, b.mbb, transformers.IndexOptions{Store: st})
	if observer != nil {
		observer(time.Since(start), err == nil)
	}
	ds := <-stats
	if err != nil {
		return nil, fmt.Errorf("server: index build: %w", err)
	}
	return &generation{elems: elems, stats: ds, index: idx}, nil
}

// installLocked is the second half: gen, built, becomes ds's current
// generation at the next version, and the returned call — made once c.mu is
// released — tells the write observer. The caller holds c.mu.
func (c *Catalog) installLocked(ds *dataset, gen *generation) (notify func()) {
	prev := ds.cur
	gen.version = 1
	if prev != nil {
		gen.version = prev.version + 1
	}
	ds.cur = gen
	ds.mergeErr = nil
	c.builds++
	return c.invalidateLocked(ds.name, prev)
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

// Append lands elements — the concatenation of pieces — in the dataset's
// delta buffer: they become visible to joins immediately (delta composition)
// without rebuilding the main index, and the delta epoch bump invalidates
// cached join results. The batch is all-or-nothing — concurrent snapshots see
// none or all of it, never a torn prefix. The elements are copied; the caller
// keeps ownership of its slices.
func (c *Catalog) Append(name string, pieces ...[]transformers.Element) (AppendInfo, error) {
	c.mu.Lock()
	ds, err := c.datasetLocked(name)
	if err != nil {
		c.mu.Unlock()
		return AppendInfo{}, err
	}
	gen := ds.cur
	notify := func() {}
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	// Grown once by the total: a decoded upload comes in blocks of some 460
	// elements, and growing by each in turn would copy the delta once a block.
	gen.delta = slices.Grow(gen.delta, n)
	for _, p := range pieces {
		gen.delta = append(gen.delta, p...)
	}
	if n > 0 {
		gen.deltaEpoch++
		c.appends++
		notify = c.invalidateLocked(name, gen)
	}
	info := AppendInfo{
		Name:          name,
		Appended:      n,
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
}

// Release does nothing: an index lives as long as its generation and the
// collector frees both when the last join over them returns. It remains for
// the callers that pair every Acquire with it.
func (h *Handle) Release() {}

func validExpand(expand float64) error {
	// A negative distance has no meaning. NaN compares false with everything,
	// so it would be served as distance 0 without a word; an infinite one
	// grows every descriptor to Inf - Inf.
	if expand < 0 || math.IsNaN(expand) || math.IsInf(expand, 0) {
		return fmt.Errorf("server: invalid expansion %v", expand)
	}
	return nil
}

// Acquire returns a handle on the index of dataset name's current version as
// a distance join at expand reads it — every box grown by expand/2 per side,
// the index itself at 0. The index was built before the version was
// installed, and a distance is a view of it (core.Index.Grown), so Acquire
// builds nothing and waits on nothing; ctx is unused.
func (c *Catalog) Acquire(_ context.Context, name string, expand float64) (*Handle, error) {
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
	c.indexHits++
	c.mu.Unlock()
	// Outside the lock: making the view is a pass over the index's descriptors.
	return &Handle{gen: gen, Index: gen.index.Grown(expand / 2), Name: name, Version: gen.version}, nil
}

// Degraded lists the datasets whose delta merge is failing, for health
// reporting.
func (c *Catalog) Degraded() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []string
	for name, ds := range c.datasets {
		if ds.mergeErr != nil {
			out = append(out, fmt.Sprintf("dataset %q: delta merge failing, %d delta elements retained: %v",
				name, len(ds.cur.delta), ds.mergeErr))
		}
	}
	sort.Strings(out)
	return out
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
// read-only: callers must pass them only to joins that neither reorder nor
// write their inputs (the delta sub-joins' grid reads them in place and grows
// each box as it takes it). Reading through the handle's
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
// base and delta elements are combined and go through the same
// build-then-install step as a Put, as a new generation whose version is
// bumped — the LSM-style background merge. Merges are single-flight per
// dataset (ErrMergeInFlight otherwise). Elements appended while the merge runs
// carry over into the new generation's delta, and the delta epoch carries with
// them. On build failure the delta is retained untouched — joins keep
// composing against it — and health reports the dataset degraded until a
// merge succeeds. Returns the number of delta elements compacted (0 when the
// delta was empty or the dataset was replaced mid-merge).
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
	// Header only: append never rewrites delta[0:n), so the build below may
	// read it outside the lock, like the base.
	base, delta := gen.elems, gen.delta[:n:n]
	c.mu.Unlock()

	// The build runs outside the lock. Base and delta are its two pieces,
	// which it only reads: it gathers them into the new generation's array,
	// which no reader sees before it is installed. The base's bounds are its
	// statistics'.
	_, span := obs.Start(ctx, "delta-merge")
	next, buildErr := c.build(batch{pieces: [][]transformers.Element{base, delta}, mbb: gen.stats.MBB.Cover(geom.MBBOf(delta))})
	span.End()
	span.Add("elements", int64(n))

	c.mu.Lock()
	ds.merging = false
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
	// Appends that landed during the merge carry over; the epoch travels
	// with them so cache keys stay content-faithful.
	next.delta = append([]transformers.Element(nil), gen.delta[n:]...)
	next.deltaEpoch = gen.deltaEpoch
	notify := c.installLocked(ds, next)
	c.merges++
	c.mu.Unlock()
	notify()
	return n, nil
}

// Stats returns a snapshot of catalog counters.
func (c *Catalog) Stats() CatalogStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	deltaElems := 0
	for _, ds := range c.datasets {
		deltaElems += len(ds.cur.delta)
	}
	parts, partBytes := c.readyPartitionsLocked()
	return CatalogStats{
		Datasets:       len(c.datasets),
		Partitions:     parts,
		PartitionBytes: partBytes,
		Builds:         c.builds,
		Evictions:      c.evictions,
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
		out = append(out, DatasetInfo{
			Name:            ds.name,
			Elements:        len(ds.cur.elems),
			Version:         ds.cur.version,
			Degraded:        ds.mergeErr != nil,
			SkewCV:          ds.cur.stats.SkewCV,
			ClusterFraction: ds.cur.stats.ClusterFraction,
			DeltaElements:   len(ds.cur.delta),
			DeltaEpoch:      ds.cur.deltaEpoch,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
