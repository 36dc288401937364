// Package rtree implements a disk-resident R-tree bulkloaded with the STR
// algorithm, plus the synchronized tree-traversal spatial join of Brinkhoff
// et al. (SIGMOD '93) — the R-TREE baseline of the paper's evaluation
// (§VII-A) — and the indexed nested-loop join (§VIII-A).
//
// Nodes are stored one per disk page. Leaf pages hold spatial elements;
// internal pages hold child entries (child page ID + subtree MBB), which
// share the element serialization format. The tree records its height, so
// pages need no level tags.
package rtree

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/storage"
	"repro/internal/str"
	"repro/internal/sweep"
)

// Config controls bulkloading.
type Config struct {
	// Fanout caps entries per node (leaf and internal). When zero the page
	// capacity is used: 146 entries on 8KB pages, matching the order of
	// magnitude of the paper's fanout of 135.
	Fanout int
	// World bounds the STR partitioning regions.
	World geom.Box
}

// Tree is a bulkloaded, paged R-tree.
type Tree struct {
	st     storage.Store
	root   storage.PageID
	height int // number of levels; leaves are level 0, root is height-1
	fanout int
	mbb    geom.Box
	size   int
}

// BuildStats reports the cost of bulkloading.
type BuildStats struct {
	// Wall is the elapsed bulkload time (CPU; I/O is counted separately).
	Wall time.Duration
	// IO is the storage traffic of the bulkload.
	IO storage.Stats
	// Pages is the total number of tree pages written.
	Pages int
	// Height is the number of tree levels.
	Height int
}

// Bulkload builds an R-tree over elems using STR packing. The element slice
// is reordered in place.
func Bulkload(st storage.Store, elems []geom.Element, cfg Config) (*Tree, BuildStats, error) {
	start := time.Now()
	before := st.Stats()
	fanout := cfg.Fanout
	if fanout <= 0 || fanout > storage.ElementsPerPage(st.PageSize()) {
		fanout = storage.ElementsPerPage(st.PageSize())
	}
	if fanout < 2 {
		return nil, BuildStats{}, fmt.Errorf("rtree: page size %d too small for fanout 2", st.PageSize())
	}
	world := cfg.World
	if !world.Valid() || world.Volume() == 0 {
		world = geom.MBBOf(elems)
	}

	t := &Tree{st: st, fanout: fanout, mbb: geom.MBBOf(elems), size: len(elems)}
	pages := 0

	// Level 0: STR-pack the elements into leaf pages.
	level := make([]geom.Element, 0) // entries describing the current level
	parts := str.Split(elems, fanout, world)
	buf := make([]byte, st.PageSize())
	writeNode := func(entries []geom.Element) (storage.PageID, error) {
		id, err := st.Alloc(1)
		if err != nil {
			return 0, err
		}
		if err := storage.EncodeElementsPage(buf, entries); err != nil {
			return 0, err
		}
		if err := st.Write(id, buf); err != nil {
			return 0, err
		}
		pages++
		return id, nil
	}

	if len(parts) == 0 {
		// Empty dataset: a single empty leaf keeps every code path uniform.
		id, err := writeNode(nil)
		if err != nil {
			return nil, BuildStats{}, err
		}
		t.root = id
		t.height = 1
		return t, BuildStats{Wall: time.Since(start), IO: st.Stats().Sub(before), Pages: pages, Height: 1}, nil
	}

	for _, p := range parts {
		id, err := writeNode(elems[p.Start:p.End])
		if err != nil {
			return nil, BuildStats{}, err
		}
		level = append(level, geom.Element{ID: uint64(id), Box: p.PageMBB})
	}
	t.height = 1

	// Upper levels: STR-pack the child entries until a single root remains.
	for len(level) > 1 {
		parts := str.Split(level, fanout, world)
		next := make([]geom.Element, 0, len(parts))
		for _, p := range parts {
			id, err := writeNode(level[p.Start:p.End])
			if err != nil {
				return nil, BuildStats{}, err
			}
			next = append(next, geom.Element{ID: uint64(id), Box: p.PageMBB})
		}
		level = next
		t.height++
	}
	t.root = storage.PageID(level[0].ID)
	return t, BuildStats{Wall: time.Since(start), IO: st.Stats().Sub(before), Pages: pages, Height: t.height}, nil
}

// Height returns the number of levels in the tree.
func (t *Tree) Height() int { return t.height }

// Len returns the number of indexed elements.
func (t *Tree) Len() int { return t.size }

// MBB returns the bounding box of all indexed elements.
func (t *Tree) MBB() geom.Box { return t.mbb }

// Store returns the tree's backing store.
func (t *Tree) Store() storage.Store { return t.st }

// readNode reads the entries of one node page through the given store view
// (which may be a cache wrapping the tree's store).
func (t *Tree) readNode(st storage.Store, id storage.PageID, buf []byte) ([]geom.Element, error) {
	return storage.ReadElementPage(st, id, nil, buf)
}

// SearchStats counts the work of window queries.
type SearchStats struct {
	Comparisons     uint64 // element MBB tests at leaves
	MetaComparisons uint64 // entry MBB tests at internal nodes
	NodesVisited    uint64
}

// Search emits every indexed element whose MBB intersects q.
func (t *Tree) Search(q geom.Box, emit func(geom.Element)) (SearchStats, error) {
	var stats SearchStats
	buf := make([]byte, t.st.PageSize())
	err := t.search(t.st, t.root, t.height-1, q, buf, &stats, emit)
	return stats, err
}

func (t *Tree) search(st storage.Store, id storage.PageID, level int, q geom.Box, buf []byte, stats *SearchStats, emit func(geom.Element)) error {
	entries, err := t.readNode(st, id, buf)
	if err != nil {
		return err
	}
	stats.NodesVisited++
	if level == 0 {
		for _, e := range entries {
			stats.Comparisons++
			if e.Box.Intersects(q) {
				emit(e)
			}
		}
		return nil
	}
	for _, c := range entries {
		stats.MetaComparisons++
		if c.Box.Intersects(q) {
			if err := t.search(st, storage.PageID(c.ID), level-1, q, buf, stats, emit); err != nil {
				return err
			}
		}
	}
	return nil
}

// cachePages sizes the buffer pool shared by both trees during the join: 8MB
// at the default page size, enough to pin the hot upper levels as a real
// traversal would.
const cachePages = 1024

// JoinConfig controls the synchronized traversal join.
type JoinConfig struct {
	// Stop, when non-nil, is a cooperative abort flag: once raised, the
	// traversal descends into no further node pair and SyncJoin returns
	// normally with partial stats (streaming callers abort through it).
	Stop *atomic.Bool
}

// JoinStats reports the cost of a join.
type JoinStats struct {
	// Comparisons counts element-element MBB intersection tests (the
	// paper's "#intersection tests").
	Comparisons uint64
	// MetaComparisons counts node-entry MBB tests steering the traversal.
	MetaComparisons uint64
	// IO is the join-phase storage traffic (cache hits excluded).
	IO storage.Stats
	// Wall is the elapsed in-memory time of the join.
	Wall time.Duration
	// Results counts emitted pairs.
	Results uint64
}

// SyncJoin performs the synchronized R-tree traversal join between two
// trees, emitting every intersecting element pair exactly once (a from ta,
// b from tb).
func SyncJoin(ta, tb *Tree, cfg JoinConfig, emit func(a, b geom.Element)) (JoinStats, error) {
	var stats JoinStats
	start := time.Now()
	beforeA := ta.st.Stats()
	var beforeB storage.Stats
	sharedStore := tb.st == ta.st
	if !sharedStore {
		beforeB = tb.st.Stats()
	}
	// Separate cache views per tree (they may share one store; the cache
	// then still works because page IDs are store-global).
	var stA, stB storage.Store
	if sharedStore {
		c := storage.NewLRU(ta.st, cachePages)
		stA, stB = c, c
	} else {
		stA = storage.NewLRU(ta.st, cachePages/2)
		stB = storage.NewLRU(tb.st, cachePages/2)
	}
	bufA := make([]byte, ta.st.PageSize())
	bufB := make([]byte, tb.st.PageSize())
	err := syncJoin(ta, tb, stA, stB, ta.root, tb.root, ta.height-1, tb.height-1, bufA, bufB, cfg.Stop, &stats, emit)
	stats.Wall = time.Since(start)
	stats.IO = ta.st.Stats().Sub(beforeA)
	if !sharedStore {
		stats.IO = stats.IO.Add(tb.st.Stats().Sub(beforeB))
	}
	return stats, err
}

func syncJoin(ta, tb *Tree, stA, stB storage.Store, pa, pb storage.PageID, la, lb int, bufA, bufB []byte, stop *atomic.Bool, stats *JoinStats, emit func(a, b geom.Element)) error {
	if stop != nil && stop.Load() {
		return nil
	}
	ea, err := ta.readNode(stA, pa, bufA)
	if err != nil {
		return err
	}
	eb, err := tb.readNode(stB, pb, bufB)
	if err != nil {
		return err
	}
	switch {
	case la == 0 && lb == 0:
		// Leaf/leaf: plane sweep over the elements (paper §VII-A).
		stats.Comparisons += sweep.Join(ea, eb, func(a, b geom.Element) {
			stats.Results++
			emit(a, b)
		})
	case la > 0 && lb > 0:
		// Internal/internal: plane sweep over the entries, recurse on
		// intersecting child pairs.
		type pair struct{ a, b storage.PageID }
		var pairs []pair
		stats.MetaComparisons += sweep.Join(ea, eb, func(a, b geom.Element) {
			pairs = append(pairs, pair{storage.PageID(a.ID), storage.PageID(b.ID)})
		})
		for _, p := range pairs {
			if err := syncJoin(ta, tb, stA, stB, p.a, p.b, la-1, lb-1, bufA, bufB, stop, stats, emit); err != nil {
				return err
			}
		}
	case la > 0:
		// A taller: descend A against the whole B node.
		mbbB := geom.MBBOf(eb)
		for _, c := range ea {
			stats.MetaComparisons++
			if c.Box.Intersects(mbbB) {
				if err := syncJoin(ta, tb, stA, stB, storage.PageID(c.ID), pb, la-1, lb, bufA, bufB, stop, stats, emit); err != nil {
					return err
				}
			}
		}
	default:
		// B taller: symmetric.
		mbbA := geom.MBBOf(ea)
		for _, c := range eb {
			stats.MetaComparisons++
			if c.Box.Intersects(mbbA) {
				if err := syncJoin(ta, tb, stA, stB, pa, storage.PageID(c.ID), la, lb-1, bufA, bufB, stop, stats, emit); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
