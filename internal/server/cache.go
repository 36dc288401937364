package server

import (
	"container/list"
	"sync"

	"repro/internal/engine/planner"
	"repro/transformers"
)

// Cache defaults.
const (
	// DefaultCacheEntries caps the number of cached join results.
	DefaultCacheEntries = 128
	// DefaultCacheMaxPairs caps the result size one cache entry may hold;
	// larger results are recomputed rather than pinned in memory.
	DefaultCacheMaxPairs = 1 << 20
)

// JoinKey identifies one join result: the dataset pair (order matters — it
// fixes the A/B orientation of the pairs), the predicate, the distance
// parameter, the resolved engine, and the dataset versions and delta epochs
// at execution time. Replacing or merging a dataset bumps its version and an
// append bumps its delta epoch, so stale results can never be served; the
// write drops them (DropDataset) instead of leaving up to a full cache of
// unreachable results to the LRU order. "auto" requests are keyed by the
// engine the planner resolved to — the decision is deterministic per
// (version, epoch), so auto and explicit requests share cache entries.
type JoinKey struct {
	A, B               string
	VersionA, VersionB uint64
	// DeltaEpochA/DeltaEpochB are the inputs' append-buffer epochs: an
	// append bumps the epoch without touching the version, so cached
	// results from before the append can never be served after it.
	DeltaEpochA, DeltaEpochB uint64
	Predicate                string // "intersects" or "distance"
	Distance                 float64
	Algorithm                string // resolved engine name
}

// PlannerInfo reports how an "auto" request was resolved.
type PlannerInfo struct {
	// Requested echoes the request's algorithm field ("auto").
	Requested string `json:"requested"`
	// Scores is the ranked pricing of the served engines, cheapest first.
	Scores []planner.Score `json:"scores"`
}

// JoinSummary is the cost summary the service reports (and caches) per join.
type JoinSummary struct {
	// Algorithm is the engine that executed (or would execute — cached
	// entries carry the engine that produced them).
	Algorithm       string  `json:"algorithm"`
	Results         uint64  `json:"results"`
	Comparisons     uint64  `json:"comparisons"`
	MetaComparisons uint64  `json:"meta_comparisons"`
	JoinWallMS      float64 `json:"join_wall_ms"`
	ModeledIOMS     float64 `json:"modeled_io_ms"`
	Reads           uint64  `json:"io_reads"`
	// BuildMS is the index build cost this request paid: zero on the
	// transformers path, whose indexes live in the catalog, and on an inmem
	// join that found its partition resident there.
	BuildMS float64 `json:"build_ms,omitempty"`
	// Delta reports the append-buffer composition when either input carried
	// a non-empty delta at execution time. Cached — it describes the keyed
	// content, which pins the epochs it was composed at.
	Delta *DeltaSummary `json:"delta,omitempty"`
	// Planner is present when the request asked for "auto".
	Planner *PlannerInfo `json:"planner,omitempty"`
}

// DeltaSummary reports how one executed join composed its inputs' append
// deltas: the delta sizes at execution time, how many grid sub-joins ran and
// what they contributed. Both served engines compose alike: their structure
// covers the bases, and the sub-joins add every pair with a delta element.
type DeltaSummary struct {
	ElementsA int `json:"elements_a"`
	ElementsB int `json:"elements_b"`
	// SubJoins counts the grid sub-joins the composition ran (base×delta,
	// delta×base, delta×delta — empty sides are skipped).
	SubJoins int `json:"sub_joins,omitempty"`
	// Pairs counts the result pairs the sub-joins contributed.
	Pairs uint64 `json:"pairs,omitempty"`
}

// CachedJoin is one cached result. The cache holds its pairs in the sealed
// pairRuns a join's collector gathered them in (~2–3 B a pair). Pairs is how
// a caller outside the service hands Put an answer: Put encodes it once and
// clears it.
type CachedJoin struct {
	Pairs   []transformers.Pair
	Summary JoinSummary
	runs    pairRuns
}

// JoinCache is a concurrency-safe LRU of join results.
type JoinCache struct {
	mu       sync.Mutex
	capacity int
	maxPairs int
	entries  map[JoinKey]*list.Element
	order    *list.List // front = most recently used
	hits     uint64
	misses   uint64
	bytes    int // the encoded answers the entries hold
}

type cacheEntry struct {
	key JoinKey
	res *CachedJoin
}

// CacheStats is a snapshot of cache activity.
type CacheStats struct {
	Entries int    `json:"entries"`
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	// Bytes is the memory the entries' encoded answers take.
	Bytes int `json:"bytes"`
}

// NewJoinCache returns an LRU join cache. capacity <= 0 selects
// DefaultCacheEntries; maxPairs <= 0 selects DefaultCacheMaxPairs.
func NewJoinCache(capacity, maxPairs int) *JoinCache {
	if capacity <= 0 {
		capacity = DefaultCacheEntries
	}
	if maxPairs <= 0 {
		maxPairs = DefaultCacheMaxPairs
	}
	return &JoinCache{
		capacity: capacity,
		maxPairs: maxPairs,
		entries:  make(map[JoinKey]*list.Element),
		order:    list.New(),
	}
}

// MaxPairs reports the per-entry result-size threshold: results larger than
// this are never cached. The streaming path uses it to stop teeing pairs into
// its cache-fill buffer the moment a result is provably uncacheable, so
// streaming memory stays bounded by the threshold, not the result.
func (c *JoinCache) MaxPairs() int { return c.maxPairs }

// Get returns the cached result for key, if present, and records the hit or
// miss. The returned CachedJoin is shared — callers must not mutate it.
func (c *JoinCache) Get(key JoinKey) (*CachedJoin, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	le, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(le)
	return le.Value.(*cacheEntry).res, true
}

// Put stores a join result, evicting the least-recently-used entry when over
// capacity; results exceeding the pair cap are dropped. Put takes res over; a
// non-nil res.Pairs is encoded into it.
func (c *JoinCache) Put(key JoinKey, res *CachedJoin) {
	if len(res.Pairs) > c.maxPairs || res.runs.n > c.maxPairs {
		return
	}
	if res.Pairs != nil {
		for _, p := range res.Pairs {
			res.runs.add(p)
		}
		res.runs, res.Pairs = res.runs.seal(), nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bytes += res.runs.bytes()
	if le, ok := c.entries[key]; ok {
		e := le.Value.(*cacheEntry)
		c.bytes -= e.res.runs.bytes()
		e.res = res
		c.order.MoveToFront(le)
		return
	}
	for len(c.entries) >= c.capacity {
		back := c.order.Back()
		if back == nil {
			break
		}
		c.removeLocked(back)
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
}

// removeLocked drops one entry. Its chunks are left to the GC: a replay may
// still be reading them.
func (c *JoinCache) removeLocked(le *list.Element) {
	e := le.Value.(*cacheEntry)
	c.bytes -= e.res.runs.bytes()
	delete(c.entries, e.key)
	c.order.Remove(le)
}

// DropDataset removes every cached result that has the named dataset on
// either side. A write to the dataset calls it: the write changed the
// version or delta epoch every such key carries, so none can be hit again.
func (c *JoinCache) DropDataset(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, le := range c.entries {
		if key.A == name || key.B == name {
			c.removeLocked(le)
		}
	}
}

// Stats returns a snapshot of cache counters.
func (c *JoinCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Entries: len(c.entries), Hits: c.hits, Misses: c.misses, Bytes: c.bytes}
}
