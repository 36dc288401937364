// Package core implements TRANSFORMERS, the adaptive spatial join that is
// the paper's primary contribution (§III–§VI).
//
// # Indexing (§IV)
//
// Each dataset is indexed independently into a three-level, page-aligned
// hierarchy:
//
//	level 2: spatial elements, packed by STR into
//	level 1: space units (one disk page of elements each), grouped by STR into
//	level 0: space nodes (one disk page of unit descriptors each).
//
// Every space unit descriptor carries two boxes: the page MBB (tight bound
// of the member elements — used for candidate tests) and the partition MBB
// (the gap-free region delimited by the STR splitting planes — used for
// navigation; regions tile space, so the adaptive walk never falls into dead
// space between pages). Space nodes carry the union of their units' regions
// and page MBBs, plus the neighbor list computed by a spatial self-join over
// node regions; units inherit connectivity from their parent node. The
// Hilbert values of node centers, sorted, provide walk starting points: §V's
// B+-tree "only provides the starting point of the exploration", and the
// index is built once and never updated (§IV), so of the tree only its leaf
// level — what bulk-loading sorted keys produces — is ever used. That level
// is kept as an array (Index.orderKeys) and searched by bisection.
//
// # Distance joins (§VIII)
//
// A distance join at d is the spatial join of both datasets' boxes enlarged
// by r = d/2, and Index.Grown(r) serves it from the index that is already
// built. Enlarging moves no centre, so the STR order, the pages and the
// hierarchy are the ungrown index's. The MBB of grown boxes is the grown MBB,
// bit for bit (Box.Expand is one subtraction and one addition per bound, both
// monotone), so every data bound is its own Expand(r), the regions grown the
// same way still cover the grown world (navigation needs cover, not the
// disjointness they lose), and elements grow where a join uses them. Only
// connectivity changes — grown Navs touch more of each other — and it is
// re-derived by the same self-join over a few hundred nodes.
//
// # Join (§V–§VI)
//
// Given two indexed datasets, adaptive exploration visits the guide
// dataset's areas one pivot at a time, walks the follower's connectivity
// graph to the pivot's location (Algorithm 1), and crawls the neighborhood
// to collect the candidate pages to join in memory — in place: the grid hash
// join loads its build side from the pages the store holds and probes with
// the other side's pages as they are, copying no batch. Before each crawl,
// TRANSFORMERS compares the local volumes of guide and follower: when the
// follower is locally sparser it switches the datasets' roles, and when the
// density contrast exceeds the cost-model thresholds it splits the pivot to
// a finer granularity (space node → space unit → spatial element),
// retrieving only the exact follower pages needed.
package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/hilbert"
	"repro/internal/storage"
	"repro/internal/str"
)

// IndexConfig controls index construction.
type IndexConfig struct {
	// UnitCapacity caps elements per space unit; the data-page capacity
	// (146 elements on 8KB pages) when zero. This is the partitioning
	// granularity knob of §IV.
	UnitCapacity int
	// NodeCapacity caps space units per space node; the descriptor-page
	// capacity when zero (§VI-B: "as many level 1 space units as can be
	// summarized and stored on a disk page are combined into level 0").
	NodeCapacity int
	// World bounds the partition regions; the dataset MBB when zero. Two
	// indexes joined together may use different worlds — indexes are built
	// per dataset and reused across joins (§III).
	World geom.Box
}

// unitDescSize is the serialized size of a space-unit descriptor: id (4) +
// page (8) + page MBB (48) + partition MBB (48).
const unitDescSize = 4 + 8 + 6*8 + 6*8

// UnitDesc describes one space unit (level 1): a disk page of elements.
type UnitDesc struct {
	// Page is the data page holding the unit's elements.
	Page storage.PageID
	// PageMBB is the tight MBB of the member element boxes.
	PageMBB geom.Box
	// Region is the gap-free partition MBB from the STR splitting planes.
	Region geom.Box
	// Nav is Region ∪ PageMBB: the box the adaptive walk and crawl navigate
	// by. Unit Navs jointly cover the whole (box-grown) world and each unit's
	// Nav contains every member element box, which makes greedy walks
	// provably convergent and crawls provably complete even when elements
	// protrude far beyond their partition region.
	Nav geom.Box
	// Node is the parent space node.
	Node int32
	// Count is the number of elements in the unit.
	Count int32
}

// NodeDesc describes one space node (level 0): a group of space units.
type NodeDesc struct {
	// Units lists the member space units.
	Units []int32
	// MBB covers the member units' partition MBBs (the "space node MBB" of
	// §IV used for volume comparisons and intersection tests).
	MBB geom.Box
	// PageMBB covers the member units' page MBBs (tight data bound).
	PageMBB geom.Box
	// Region is the gap-free node-level region from the STR splitting
	// planes over units.
	Region geom.Box
	// Nav is Region ∪ MBB ∪ PageMBB: the navigation box, which contains
	// every member unit's Nav. STR assigns units to nodes by region center,
	// so a unit's region may protrude outside its node's Region; Nav
	// restores the containment the walk's convergence proof needs.
	Nav geom.Box
	// Neighbors lists nodes with intersecting Nav boxes (connectivity,
	// §IV); it covers every pair of nodes owning geometrically adjacent
	// units, so unit-level connectivity can be inherited from it.
	Neighbors []int32
	// Count is the total number of elements under the node.
	Count int32
}

// Index is one dataset indexed for TRANSFORMERS. Build it once with
// BuildIndex and reuse it across any number of joins.
type Index struct {
	st     storage.Store
	units  []UnitDesc
	nodes  []NodeDesc
	mapper *hilbert.Mapper
	world  geom.Box
	size   int
	// nodeOrder lists node IDs in Hilbert order of their centers (equal keys
	// by node ID): the pivot visit order, which keeps consecutive walks short.
	// orderKeys holds the Hilbert value of each listed node; nearestNode
	// searches it.
	nodeOrder []int32
	orderKeys []uint64
	// grow is what Grown added to every descriptor box and what a join adds
	// to each element where it uses it; zero for a built index.
	grow float64
	// sides holds the idle per-run state of joins and range queries over
	// this index and its Grown views (see acquireSide), so its scratch
	// outlives one run. It dies with them.
	sides *sidePool
}

// BuildStats reports indexing cost.
type BuildStats struct {
	// Wall is the elapsed indexing time.
	Wall time.Duration
	// IO is the storage traffic of the build (data pages + descriptor pages).
	IO storage.Stats
	// Units and Nodes count the hierarchy.
	Units, Nodes int
	// ConnectivityComparisons counts box tests of the neighbor self-join.
	ConnectivityComparisons uint64
	// DataPages and MetaPages count pages written.
	DataPages, MetaPages int
}

// BuildIndex indexes elems: it partitions them into space units written to
// the store, groups units into space nodes, computes connectivity and the
// Hilbert order of the nodes. The element slice is reordered in place (STR
// order, which is also the sequential disk layout order) and belongs to the
// index afterwards: each unit's page is its range of elems, not a copy, so the
// caller may read the slice but must not write to it, or hand it to anything
// that does, while the index is in use.
func BuildIndex(st storage.Store, elems []geom.Element, cfg IndexConfig) (*Index, BuildStats, error) {
	return BuildIndexChunked(st, geom.ChunkedOf(elems), geom.MBBOf(elems), cfg)
}

// BuildIndexChunked is BuildIndex of a chunked array, whose geom.MBBOf the
// caller has and passes as bounds: the build makes no pass of its own for it.
// The array is reordered in place across its chunks (str.SplitChunked) and
// owned by the index as BuildIndex's elems is; a unit whose page straddles
// two chunks is the one page copied.
func BuildIndexChunked(st storage.Store, elems geom.Chunked, bounds geom.Box, cfg IndexConfig) (*Index, BuildStats, error) {
	return build(st, elems.Len(), bounds, cfg, func(unitCap int, world geom.Box) (geom.Chunked, []str.Partition) {
		return elems, str.SplitChunked(elems, unitCap, world)
	})
}

// BuildIndexPieces is BuildIndex over the concatenation of pieces, whose
// geom.MBBOf the caller passes as bounds. It returns the array the index
// keeps, in STR order (see str.SplitPieces): the pieces are only read,
// gathered into a new one, and the slice of them is cleared.
func BuildIndexPieces(st storage.Store, pieces [][]geom.Element, bounds geom.Box, cfg IndexConfig) (*Index, []geom.Element, BuildStats, error) {
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	var out []geom.Element
	idx, bs, err := build(st, n, bounds, cfg, func(unitCap int, world geom.Box) (geom.Chunked, []str.Partition) {
		elems, parts := str.SplitPieces(pieces, unitCap, world)
		out = elems
		return geom.ChunkedOf(elems), parts
	})
	return idx, out, bs, err
}

// build indexes n elements within bounds, which split orders into STR
// partitions of at most unitCap elements under world and returns as the array
// the partitions index.
func build(st storage.Store, n int, bounds geom.Box, cfg IndexConfig,
	split func(unitCap int, world geom.Box) (geom.Chunked, []str.Partition)) (*Index, BuildStats, error) {
	start := time.Now()
	before := st.Stats()

	unitCap := cfg.UnitCapacity
	if max := storage.ElementsPerPage(st.PageSize()); unitCap <= 0 || unitCap > max {
		unitCap = max
	}
	nodeCap := cfg.NodeCapacity
	if max := st.PageSize() / unitDescSize; nodeCap <= 0 || nodeCap > max {
		nodeCap = max
	}
	if nodeCap < 2 {
		return nil, BuildStats{}, fmt.Errorf("core: page size %d too small for node capacity 2", st.PageSize())
	}
	world := cfg.World
	if !world.Valid() || world.Volume() == 0 {
		world = bounds
	}
	if n > 0 {
		// Grow the world to cover full element boxes (not just centers):
		// the partition regions then tile a space containing all data,
		// which the walk convergence and crawl completeness proofs rely on.
		world = world.Union(bounds)
	}

	idx := &Index{st: st, world: world, size: n, sides: new(sidePool)}
	var bs BuildStats

	// Level 1: space units — STR partitions of elements (element ranges and
	// boxes only; pages are written after node grouping so that a node's
	// pages end up physically contiguous and node-batched reads during the
	// join stay sequential).
	elems, parts := split(unitCap, world)

	// Level 0: space nodes — STR over the unit descriptors (each unit
	// represented by its region, partitioned by region center).
	unitRefs := make([]geom.Element, len(parts))
	for i, p := range parts {
		unitRefs[i] = geom.Element{ID: uint64(i), Box: p.Region}
	}
	nodeParts := str.Split(unitRefs, nodeCap, world)
	for ni, np := range nodeParts {
		node := NodeDesc{
			MBB:     geom.EmptyBox(),
			PageMBB: geom.EmptyBox(),
			Region:  np.Region,
		}
		nav := np.Region
		for _, ref := range unitRefs[np.Start:np.End] {
			p := parts[ref.ID]
			id, err := st.Append(elems.Slice(p.Start, p.End))
			if err != nil {
				return nil, BuildStats{}, err
			}
			bs.DataPages++
			ui := int32(len(idx.units))
			idx.units = append(idx.units, UnitDesc{
				Page:    id,
				PageMBB: p.PageMBB,
				Region:  p.Region,
				Nav:     p.Region.Union(p.PageMBB),
				Node:    int32(ni),
				Count:   int32(p.Count()),
			})
			node.Units = append(node.Units, ui)
			node.MBB = node.MBB.Union(p.Region)
			node.PageMBB = node.PageMBB.Union(p.PageMBB)
			nav = nav.Union(idx.units[ui].Nav)
			node.Count += idx.units[ui].Count
		}
		node.Nav = nav
		idx.nodes = append(idx.nodes, node)
	}

	bs.ConnectivityComparisons = idx.link()

	// Persist the descriptor tables so indexing I/O and on-disk size are
	// honest; the join keeps descriptors in memory (§VI-B notes metadata
	// comparisons are cheap).
	metaPages, err := idx.writeMeta()
	if err != nil {
		return nil, BuildStats{}, err
	}
	bs.MetaPages = metaPages

	bs.Wall = time.Since(start)
	bs.IO = st.Stats().Sub(before)
	bs.Units = len(idx.units)
	bs.Nodes = len(idx.nodes)
	return idx, bs, nil
}

// link derives what an index holds besides its descriptors' boxes and members,
// from the Navs, Regions and world set before the call: each node's Neighbors
// and the nodes' Hilbert order. It returns the box tests of the self-join.
func (idx *Index) link() (comparisons uint64) {
	// Connectivity: self-join the node Nav boxes (touch-inclusive). §IV
	// uses PBSM for this self join and notes any spatial join works; the
	// in-memory grid join here is the same kernel PBSM uses per partition.
	// Linking on Nav (rather than the bare region) guarantees that any two
	// nodes owning geometrically adjacent or overlapping units are linked,
	// which unit-level connectivity inheritance depends on.
	navs := make([]geom.Box, len(idx.nodes))
	for i := range idx.nodes {
		navs[i] = idx.nodes[i].Nav
	}
	comparisons = grid.SelfPairs(navs, func(i, j int) {
		idx.nodes[i].Neighbors = append(idx.nodes[i].Neighbors, int32(j))
		idx.nodes[j].Neighbors = append(idx.nodes[j].Neighbors, int32(i))
	})

	// Walk-start index and pivot visit order: the nodes sorted by the Hilbert
	// value of their centers.
	idx.mapper = hilbert.NewMapper(idx.world, hilbert.DefaultOrder)
	keys := make([]uint64, len(idx.nodes))
	for i := range idx.nodes {
		keys[i] = idx.mapper.Value(idx.nodes[i].Region.Center())
	}
	idx.setNodeOrder(keys)
	return comparisons
}

// Grown returns the index as a distance join at d = 2r reads it: it joins as
// BuildIndex over the same elements with every box Expand(r)-ed would, without
// the copy and the sort. The view shares the index's store, pages, member
// lists and side pool; its descriptors are copies with every box grown by r,
// its connectivity and node order are derived from those as BuildIndex derives
// them, and its joins grow each element where they use it. Making one costs a
// pass over the descriptors (≈ 1.3 B per element), so callers make it per
// join. An r that is not positive returns the index itself; idx must be a
// built index, not a view.
func (idx *Index) Grown(r float64) *Index {
	if !(r > 0) {
		return idx
	}
	if idx.grow > 0 {
		panic("core: Grown of a grown index")
	}
	v := &Index{
		st:    idx.st,
		units: slices.Clone(idx.units),
		nodes: slices.Clone(idx.nodes),
		world: idx.world.Expand(r),
		size:  idx.size,
		grow:  r,
		sides: idx.sides,
	}
	for i := range v.units {
		u := &v.units[i]
		u.PageMBB, u.Region, u.Nav = u.PageMBB.Expand(r), u.Region.Expand(r), u.Nav.Expand(r)
	}
	for i := range v.nodes {
		n := &v.nodes[i]
		n.MBB, n.PageMBB, n.Region, n.Nav = n.MBB.Expand(r), n.PageMBB.Expand(r), n.Region.Expand(r), n.Nav.Expand(r)
		n.Neighbors = nil
	}
	v.link()
	return v
}

// setNodeOrder sorts the node IDs by keys[node], equal keys by node ID, into
// nodeOrder and lists their keys alongside in orderKeys.
func (idx *Index) setNodeOrder(keys []uint64) {
	idx.nodeOrder = make([]int32, len(keys))
	for i := range idx.nodeOrder {
		idx.nodeOrder[i] = int32(i)
	}
	slices.SortFunc(idx.nodeOrder, func(a, b int32) int {
		return cmp.Or(cmp.Compare(keys[a], keys[b]), cmp.Compare(a, b))
	})
	idx.orderKeys = make([]uint64, len(keys))
	for i, n := range idx.nodeOrder {
		idx.orderKeys[i] = keys[n]
	}
}

// nearestNode returns the node whose key is closest to key — the last one at
// or below it unless the first one at or above it is strictly closer — and
// false for an index without nodes. It is the lookup of a B+-tree over the
// keys (floor, ceiling, the nearer of the two), on its leaf level.
func (idx *Index) nearestNode(key uint64) (int32, bool) {
	keys := idx.orderKeys
	hi := sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
	lo := sort.Search(len(keys), func(i int) bool { return keys[i] > key }) - 1
	switch {
	case len(keys) == 0:
		return 0, false
	case lo < 0:
		lo = hi
	case hi < len(keys) && keys[hi]-key < key-keys[lo]:
		lo = hi
	}
	return idx.nodeOrder[lo], true
}

// writeMeta charges the build with the metadata I/O a disk-resident index
// pays: one page per page-size worth of unit descriptors, matching the
// page-aligned layout of §VI-B. The descriptors are not read back (they stay
// in memory), so each page is appended empty; a page of any content counts
// the same.
func (idx *Index) writeMeta() (int, error) {
	perPage := max(idx.st.PageSize()/unitDescSize, 1)
	pages := 0
	for start := 0; start < len(idx.units); start += perPage {
		if _, err := idx.st.Append(nil); err != nil {
			return pages, err
		}
		pages++
	}
	return pages, nil
}

// Len returns the number of indexed elements.
func (idx *Index) Len() int { return idx.size }

// Units returns the number of space units.
func (idx *Index) Units() int { return len(idx.units) }

// Nodes returns the number of space nodes.
func (idx *Index) Nodes() int { return len(idx.nodes) }

// World returns the world box the index was built with.
func (idx *Index) World() geom.Box { return idx.world }

// Store returns the backing store.
func (idx *Index) Store() storage.Store { return idx.st }

// Validate checks structural invariants (tests and tools).
func (idx *Index) Validate() error {
	var count int32
	for ni := range idx.nodes {
		n := &idx.nodes[ni]
		if len(n.Units) == 0 && len(idx.units) > 0 {
			return fmt.Errorf("core: node %d has no units", ni)
		}
		var nc int32
		for _, ui := range n.Units {
			u := idx.units[ui]
			if u.Node != int32(ni) {
				return fmt.Errorf("core: unit %d parent is %d, want %d", ui, u.Node, ni)
			}
			if !n.MBB.Contains(u.Region) {
				return fmt.Errorf("core: node %d MBB misses unit %d region", ni, ui)
			}
			if !n.PageMBB.Contains(u.PageMBB) {
				return fmt.Errorf("core: node %d PageMBB misses unit %d page MBB", ni, ui)
			}
			nc += u.Count
		}
		if nc != n.Count {
			return fmt.Errorf("core: node %d count %d != sum %d", ni, n.Count, nc)
		}
		count += nc
		if !n.Nav.Contains(n.Region) || !n.Nav.Contains(n.PageMBB) {
			return fmt.Errorf("core: node %d Nav does not cover region/pageMBB", ni)
		}
		for _, nb := range n.Neighbors {
			if int(nb) == ni {
				return fmt.Errorf("core: node %d is its own neighbor", ni)
			}
			if !idx.nodes[nb].Nav.Intersects(n.Nav) {
				return fmt.Errorf("core: nodes %d,%d linked but Navs disjoint", ni, nb)
			}
		}
	}
	if int(count) != idx.size {
		return fmt.Errorf("core: element count %d != size %d", count, idx.size)
	}
	if len(idx.nodeOrder) != len(idx.nodes) {
		return fmt.Errorf("core: node order length %d != nodes %d", len(idx.nodeOrder), len(idx.nodes))
	}
	return nil
}
