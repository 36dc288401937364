package core

import "repro/internal/geom"

// graph abstracts the two connectivity graphs the adaptive walk explores:
// space nodes (level 0) and space units (level 1, with connectivity
// inherited from the parent nodes, §IV "Connectivity"). Navigation runs on
// the Nav boxes: they cover the whole world, every descriptor's data is
// contained in its Nav, and geometric adjacency of Navs implies graph
// adjacency — the three properties the walk convergence and crawl
// completeness arguments need.
type graph interface {
	size() int
	nav(i int32) geom.Box
	// neighbors visits the connectivity links of i.
	neighbors(i int32, visit func(int32))
}

// nodeGraph is the level-0 graph of an index.
type nodeGraph struct{ idx *Index }

func (g nodeGraph) size() int            { return len(g.idx.nodes) }
func (g nodeGraph) nav(i int32) geom.Box { return g.idx.nodes[i].Nav }
func (g nodeGraph) neighbors(i int32, visit func(int32)) {
	for _, nb := range g.idx.nodes[i].Neighbors {
		visit(nb)
	}
}

// unitGraph is the level-1 graph: a unit's neighbors are the sibling units
// of its parent node and the units of the parent's neighbor nodes.
type unitGraph struct{ idx *Index }

func (g unitGraph) size() int            { return len(g.idx.units) }
func (g unitGraph) nav(i int32) geom.Box { return g.idx.units[i].Nav }
func (g unitGraph) neighbors(i int32, visit func(int32)) {
	parent := g.idx.units[i].Node
	for _, sib := range g.idx.nodes[parent].Units {
		if sib != i {
			visit(sib)
		}
	}
	for _, nb := range g.idx.nodes[parent].Neighbors {
		for _, u := range g.idx.nodes[nb].Units {
			visit(u)
		}
	}
}

// walker runs Algorithm 1 (adaptive walk) and the crawl phase over a graph.
// The visited set is an epoch array and the queue is read by position rather
// than resliced, so consecutive walks — and, the walker being part of a
// pooled side, consecutive joins — reuse both allocations.
type walker struct {
	visited []uint32
	epoch   uint32
	queue   []int32
}

func newWalker(n int) *walker { return &walker{visited: make([]uint32, n)} }

func (w *walker) reset() {
	w.epoch++
	if w.epoch == 0 {
		// A long-lived walker wrapped around: marks of 2^32 walks ago would
		// read as current.
		clear(w.visited)
		w.epoch = 1
	}
	w.queue = w.queue[:0]
}

func (w *walker) seen(i int32) bool { return w.visited[i] == w.epoch }
func (w *walker) mark(i int32)      { w.visited[i] = w.epoch }

// walkResult carries the outcome of an adaptive walk.
type walkResult struct {
	// found is the first descriptor whose Nav box intersects the target,
	// or -1 when the walk established that none does.
	found int32
	// nearest is the closest descriptor seen (the next walk's start).
	nearest int32
	// steps counts dequeued descriptors (each costs Tae).
	steps uint64
}

// walk is Algorithm 1: explore the graph from start, steering towards
// target, until a descriptor whose Nav box intersects target is found or
// the walk stops approaching it (isMovingAway). Because Nav boxes cover the
// follower's world, contain all its data, and touching Navs are always graph
// neighbors, the greedy descent cannot get stuck in a false local minimum:
// whenever some descriptor intersects the target, each expansion round finds
// a strictly closer one. maxSteps is a purely defensive bound.
func (w *walker) walk(g graph, start int32, target geom.Box, maxSteps int) walkResult {
	w.reset()
	w.mark(start)
	w.queue = append(w.queue, start)
	res := walkResult{found: -1, nearest: start}
	closestDist := g.nav(start).DistSq(target)
	lastExpandDist := closestDist
	for head := 0; head < len(w.queue); head++ {
		fr := w.queue[head]
		res.steps++
		d := g.nav(fr).DistSq(target)
		if d == 0 {
			res.found = fr
			res.nearest = fr
			return res
		}
		if d < closestDist {
			closestDist = d
			res.nearest = fr
		}
		if head+1 == len(w.queue) {
			// isMovingAway (Algorithm 1): stop when the last expansion
			// failed to move the walk closer to the target.
			if (closestDist >= lastExpandDist && res.steps > 1) || int(res.steps) > maxSteps {
				break
			}
			lastExpandDist = closestDist
			g.neighbors(res.nearest, func(nb int32) {
				if !w.seen(nb) {
					w.mark(nb)
					w.queue = append(w.queue, nb)
				}
			})
		}
	}
	return res
}

// crawl is the crawl phase of §V: starting from the intersection record it
// expands across neighbors whose Nav boxes intersect the target and calls
// collect for every descriptor dequeued; collect decides whether the
// descriptor contributes candidates (page MBB test). Every descriptor whose
// data can intersect the target is dequeued: the target footprint over Nav
// boxes is connected and contains the start. It returns the number of
// descriptors visited (metadata comparisons).
func (w *walker) crawl(g graph, from int32, target geom.Box, collect func(int32)) uint64 {
	w.reset()
	w.mark(from)
	w.queue = append(w.queue, from)
	var visited uint64
	for head := 0; head < len(w.queue); head++ {
		u := w.queue[head]
		visited++
		collect(u)
		if g.nav(u).Intersects(target) {
			g.neighbors(u, func(nb int32) {
				if !w.seen(nb) {
					w.mark(nb)
					w.queue = append(w.queue, nb)
				}
			})
		}
	}
	return visited
}
