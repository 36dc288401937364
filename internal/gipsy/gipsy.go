// Package gipsy implements GIPSY (Pavlovic et al., SSDBM '13), the
// data-oriented crawling join the paper uses as its contrasting-density
// baseline (§VIII-A).
//
// GIPSY partitions the dense dataset into disk pages with data-oriented
// (STR) partitioning and connects neighboring partitions. The sparse dataset
// is not indexed at all: its elements, visited in Hilbert order, steer a
// directed walk through the dense dataset's partition graph; around each
// element the crawl collects the pages whose contents can intersect it and
// tests those elements only.
//
// GIPSY's strategy is static: the guide (sparse) and follower (dense) roles
// are fixed before the join, and the guide is always consumed at spatial
// element granularity — its "only level of granularity" as §VII-C1 puts it.
// Those two facts are exactly what TRANSFORMERS relaxes; GIPSY is therefore
// excellent when density contrast is extreme and poor when the datasets have
// similar density.
package gipsy

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hilbert"
	"repro/internal/storage"
	"repro/internal/str"
)

// Config controls index construction over the dense dataset.
type Config struct {
	// PageCapacity caps elements per partition page; the page capacity of
	// the store when zero.
	PageCapacity int
	// World bounds the partition regions; the dataset MBB when zero.
	World geom.Box
}

// unitDesc is the in-memory descriptor of one partition: its disk page, the
// tight MBB of its elements, the gap-free region from the STR splitting
// planes, and its neighbor list.
type unitDesc struct {
	page      storage.PageID
	pageMBB   geom.Box
	region    geom.Box
	neighbors []int32
}

// Index is the partitioned, connectivity-linked dense dataset.
type Index struct {
	st    storage.Store
	units []unitDesc
	size  int
	world geom.Box
	// slack is the maximum element half-extent: every element box is
	// contained in its unit's region expanded by slack. Walks and crawl
	// expansion navigate against the pivot expanded by slack, which makes
	// candidate collection complete even for elements protruding far out of
	// their partition region.
	slack float64
}

// BuildStats reports indexing cost.
type BuildStats struct {
	Wall  time.Duration
	IO    storage.Stats
	Units int
	// ConnectivityComparisons counts box tests of the neighbor self-join.
	ConnectivityComparisons uint64
}

// BuildIndex partitions the dense dataset and computes connectivity. The
// element slice is reordered in place (STR order, which is also the disk
// layout order).
func BuildIndex(st storage.Store, elems []geom.Element, cfg Config) (*Index, BuildStats, error) {
	start := time.Now()
	before := st.Stats()
	capacity := cfg.PageCapacity
	if max := storage.ElementsPerPage(st.PageSize()); capacity <= 0 || capacity > max {
		capacity = max
	}
	world := cfg.World
	if !world.Valid() || world.Volume() == 0 {
		world = geom.MBBOf(elems)
	}
	idx := &Index{st: st, size: len(elems), world: world}
	for _, e := range elems {
		for d := 0; d < geom.Dims; d++ {
			if half := e.Box.Side(d) / 2; half > idx.slack {
				idx.slack = half
			}
		}
	}
	parts := str.Split(elems, capacity, world)
	buf := make([]byte, st.PageSize())
	for _, p := range parts {
		id, err := st.Alloc(1)
		if err != nil {
			return nil, BuildStats{}, err
		}
		if err := storage.EncodeElementsPage(buf, elems[p.Start:p.End]); err != nil {
			return nil, BuildStats{}, err
		}
		if err := st.Write(id, buf); err != nil {
			return nil, BuildStats{}, err
		}
		idx.units = append(idx.units, unitDesc{page: id, pageMBB: p.PageMBB, region: p.Region})
	}
	// Connectivity: self-join the partition regions (touch-inclusive, the
	// regions tile space so neighbors share faces).
	regions := make([]geom.Box, len(idx.units))
	for i, u := range idx.units {
		regions[i] = u.region
	}
	comparisons := grid.SelfPairs(regions, func(i, j int) {
		idx.units[i].neighbors = append(idx.units[i].neighbors, int32(j))
		idx.units[j].neighbors = append(idx.units[j].neighbors, int32(i))
	})
	return idx, BuildStats{
		Wall:                    time.Since(start),
		IO:                      st.Stats().Sub(before),
		Units:                   len(idx.units),
		ConnectivityComparisons: comparisons,
	}, nil
}

// Len returns the number of indexed elements.
func (idx *Index) Len() int { return idx.size }

// Units returns the number of partitions.
func (idx *Index) Units() int { return len(idx.units) }

// cachePages sizes the join's page cache.
const cachePages = 256

// JoinConfig controls the crawling join.
type JoinConfig struct {
	// Stop, when non-nil, is a cooperative abort flag: once raised, no
	// further guide element is processed and Join returns normally with
	// partial stats (streaming callers abort through it).
	Stop *atomic.Bool
}

// JoinStats reports join cost.
type JoinStats struct {
	// Comparisons counts element-element MBB tests.
	Comparisons uint64
	// MetaComparisons counts descriptor (region/page MBB) tests during
	// walks and crawls.
	MetaComparisons uint64
	// WalkSteps counts descriptors dequeued by directed walks.
	WalkSteps uint64
	// IO is the join-phase storage traffic (cache hits excluded).
	IO storage.Stats
	// Wall is the elapsed in-memory time.
	Wall time.Duration
	// Results counts emitted pairs.
	Results uint64
}

// Join performs the GIPSY join: sparse guides the crawl through the indexed
// dense dataset. Pairs are emitted as (sparse element, dense element),
// exactly once each.
func Join(sparse []geom.Element, dense *Index, cfg JoinConfig, emit func(s, d geom.Element)) (JoinStats, error) {
	var stats JoinStats
	if len(sparse) == 0 || len(dense.units) == 0 {
		return stats, nil
	}
	start := time.Now()
	before := dense.st.Stats()
	// Walks terminate on their own; maxSteps is a defensive bound on one that
	// stopped converging.
	maxSteps := 4 * len(dense.units)
	// The page cache keeps recently crawled pages hot across consecutive
	// guide elements.
	cached := storage.NewLRU(dense.st, cachePages)
	buf := make([]byte, dense.st.PageSize())

	// Visit guide elements in Hilbert order: consecutive elements are
	// spatially close, so each walk starts near its target.
	guide := append([]geom.Element(nil), sparse...)
	mapper := hilbert.NewMapper(dense.world, hilbert.DefaultOrder)
	sort.Slice(guide, func(i, j int) bool {
		return mapper.Value(guide[i].Box.Center()) < mapper.Value(guide[j].Box.Center())
	})

	walker := newWalker(len(dense.units))
	cur := 0 // walk start: previous element's nearest unit
	for _, g := range guide {
		if cfg.Stop != nil && cfg.Stop.Load() {
			break
		}
		// Navigate against the pivot expanded by the dense dataset's
		// maximum element half-extent: any element that can intersect the
		// pivot lives in a region intersecting this target.
		target := g.Box.Expand(dense.slack)
		found, nearest := walker.walk(dense.units, cur, target, maxSteps, &stats)
		cur = nearest
		if found < 0 {
			continue // no region intersects: g joins nothing
		}
		// Crawl from the intersection record, then test candidate pages.
		candidates := walker.crawl(dense.units, found, g.Box, target, &stats)
		for _, ui := range candidates {
			elems, err := storage.ReadElementPage(cached, dense.units[ui].page, nil, buf)
			if err != nil {
				return stats, err
			}
			for _, d := range elems {
				stats.Comparisons++
				if d.Box.Intersects(g.Box) {
					stats.Results++
					emit(g, d)
				}
			}
		}
	}
	stats.Wall = time.Since(start)
	stats.IO = dense.st.Stats().Sub(before)
	return stats, nil
}

// walker holds the scratch state of walks and crawls; the visited epochs
// avoid reallocating a visited set per element.
type walker struct {
	visited []uint32
	epoch   uint32
	queue   []int32
}

func newWalker(n int) *walker {
	return &walker{visited: make([]uint32, n)}
}

func (w *walker) reset() {
	w.epoch++
	w.queue = w.queue[:0]
}

func (w *walker) seen(i int32) bool { return w.visited[i] == w.epoch }
func (w *walker) mark(i int32)      { w.visited[i] = w.epoch }

// walk is Algorithm 1 of the paper specialized to GIPSY's unit granularity:
// starting from unit start, it explores neighbor descriptors steering
// towards pivot, returning the first unit whose region intersects pivot
// (found == -1 when none does) and the closest unit seen (the next walk's
// start).
func (w *walker) walk(units []unitDesc, start int, pivot geom.Box, maxSteps int, stats *JoinStats) (found, nearest int) {
	w.reset()
	w.mark(int32(start))
	w.queue = append(w.queue, int32(start))
	closest := start
	closestDist := units[start].region.DistSq(pivot)
	lastExpandDist := closestDist
	steps := 0
	for len(w.queue) > 0 {
		fr := w.queue[0]
		w.queue = w.queue[1:]
		stats.WalkSteps++
		stats.MetaComparisons++
		steps++
		d := units[fr].region.DistSq(pivot)
		if d == 0 {
			return int(fr), int(fr)
		}
		if d < closestDist {
			closestDist = d
			closest = int(fr)
		}
		if len(w.queue) == 0 {
			// isMovingAway: stop when the last expansion brought no
			// improvement, or the defensive bound is hit.
			if closestDist >= lastExpandDist && steps > 1 || steps > maxSteps {
				break
			}
			lastExpandDist = closestDist
			for _, nb := range units[closest].neighbors {
				if !w.seen(nb) {
					w.mark(nb)
					w.queue = append(w.queue, nb)
				}
			}
		}
	}
	return -1, closest
}

// crawl collects the pages whose contents can intersect pivot: starting at
// the intersection record it expands across neighbors whose *regions*
// intersect the expanded target, and reports units whose *page MBBs*
// intersect the pivot (paper §V, "Adaptive Crawling", at unit granularity).
// The target footprint is convex and the regions tile space, so the BFS
// reaches every unit that can hold an intersecting element.
func (w *walker) crawl(units []unitDesc, from int, pivot, target geom.Box, stats *JoinStats) []int32 {
	w.reset()
	w.mark(int32(from))
	w.queue = append(w.queue, int32(from))
	var out []int32
	for len(w.queue) > 0 {
		u := w.queue[0]
		w.queue = w.queue[1:]
		stats.MetaComparisons++
		if units[u].pageMBB.Intersects(pivot) {
			out = append(out, u)
		}
		// Expand only through units whose region intersects the target: the
		// crawl frontier stays inside the pivot's (expanded) footprint.
		if units[u].region.Intersects(target) {
			for _, nb := range units[u].neighbors {
				if !w.seen(nb) {
					w.mark(nb)
					w.queue = append(w.queue, nb)
				}
			}
		}
	}
	return out
}

// Validate sanity-checks index invariants (used by tests and tools).
func (idx *Index) Validate() error {
	for i, u := range idx.units {
		if !u.region.Valid() {
			return fmt.Errorf("gipsy: unit %d has invalid region", i)
		}
		for _, nb := range u.neighbors {
			if int(nb) == i {
				return fmt.Errorf("gipsy: unit %d is its own neighbor", i)
			}
			if !idx.units[nb].region.Intersects(u.region) {
				return fmt.Errorf("gipsy: units %d and %d linked but regions disjoint", i, nb)
			}
		}
	}
	return nil
}
