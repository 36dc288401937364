package core

import (
	"time"

	"repro/internal/geom"
	"repro/internal/storage"
)

// Range queries over a built index. The paper's index (§IV) is a
// join-support structure, but the same machinery — the Hilbert-order walk
// start, the adaptive walk of Algorithm 1 and the neighborhood crawl of §V —
// answers spatial selections: walk the node graph to the query box, crawl the
// connected footprint of intersecting Nav boxes, and read exactly the space
// units whose page MBBs can contribute. An index therefore serves selections
// as well as joins, which is what the serving layer's build-once/query-many
// catalog exploits.

// RangeStats reports the cost of one range query.
type RangeStats struct {
	// Results counts elements intersecting the query box.
	Results int
	// NodesVisited counts space nodes dequeued by the crawl.
	NodesVisited int
	// UnitsRead counts space-unit pages read.
	UnitsRead int
	// WalkSteps counts descriptors dequeued by the adaptive walk.
	WalkSteps uint64
	// MetaComparisons counts descriptor box tests (walk + crawl + filters).
	MetaComparisons uint64
	// Comparisons counts element-box intersection tests.
	Comparisons uint64
	// IO is the query's storage traffic (through a private reader view).
	IO storage.Stats
	// Wall is the elapsed query time.
	Wall time.Duration
}

// RangeQuery returns every indexed element whose box intersects query
// (touch-inclusive, matching the join predicate). Results are appended to dst
// and returned in page order; element order within a page is the stored STR
// order.
//
// The query runs on a side of its own from the index's pool — private walker
// state and scratch, the join's page read path — over a private
// Store.OpenReader view, so any number of RangeQuery calls may run
// concurrently with each other and with joins on the same index.
//
// Completeness follows from the index invariants: every element box is
// contained in its unit's Nav, unit Navs are contained in the parent node's
// Nav, node Navs jointly cover the world, and touching Navs are graph
// neighbors. The walk therefore finds an intersecting node whenever one
// exists, and the crawl's footprint of intersecting Navs is connected and
// contains it.
func (idx *Index) RangeQuery(query geom.Box, dst []geom.Element) ([]geom.Element, RangeStats, error) {
	var rs RangeStats
	base := len(dst)
	start := time.Now()
	defer func() { rs.Wall = time.Since(start) }()

	if idx.size == 0 || len(idx.nodes) == 0 || !query.Valid() {
		return dst, rs, nil
	}
	rd := idx.st.OpenReader()
	s := acquireSide(idx, rd, true)
	defer s.release()
	w := s.nodeWalker

	// Walk start: the nearest node by Hilbert value of the query center
	// (there is one: the index has nodes).
	startNode, _ := idx.nearestNode(idx.mapper.Value(query.Center()))
	maxSteps := 4 * (len(idx.nodes) + len(idx.units))
	wres := w.walk(nodeGraph{idx}, startNode, query, maxSteps)
	rs.WalkSteps = wres.steps
	rs.MetaComparisons += wres.steps
	if wres.found < 0 {
		// No node Nav intersects the query; since every element box lies
		// inside some Nav, no element can intersect it either.
		return dst, rs, nil
	}

	// Crawl the connected footprint of Nav-intersecting nodes, collecting the
	// space units whose page MBB can hold a result.
	s.cand = s.cand[:0]
	visited := w.crawl(nodeGraph{idx}, wres.found, query, func(nd int32) {
		rs.NodesVisited++
		n := &idx.nodes[nd]
		rs.MetaComparisons++
		if !n.PageMBB.Intersects(query) {
			return
		}
		for _, ui := range n.Units {
			rs.MetaComparisons++
			if idx.units[ui].PageMBB.Intersects(query) {
				s.cand = append(s.cand, ui)
			}
		}
	})
	rs.MetaComparisons += visited

	// Read the candidate pages in physical order (sequential on disk) and
	// filter the member elements by the query box.
	s.sortByPage(s.cand)
	for _, ui := range s.cand {
		if err := s.readUnit(ui); err != nil {
			return dst, rs, err
		}
		rs.UnitsRead++
		for _, e := range s.runs[0] {
			rs.Comparisons++
			e.Box.Grow(idx.grow)
			if e.Box.Intersects(query) {
				dst = append(dst, e)
			}
		}
	}
	rs.IO = rd.Stats()
	rs.Results = len(dst) - base
	return dst, rs, nil
}
