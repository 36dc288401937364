// Package grid implements the in-memory grid hash join of Tauheed et al.
// (BICOD '15), reference [11] of the paper: PBSM and TRANSFORMERS both use
// it to join candidate element sets in memory (§V "In-memory Join", §VII-A).
//
// The join partitions space into a uniform grid, assigns the build-side
// elements to every cell they overlap, then probes with the other set's
// elements; duplicate candidate pairs arising from multi-cell overlap are
// suppressed with the reference-point method (a pair is reported only in the
// cell that contains the low corner of the pair's MBB intersection).
//
// A Grid keeps no element slice of its own: Reset loads the build side's
// boxes and IDs into a struct-of-arrays straight from the runs it is handed —
// a TRANSFORMERS join hands it the pages it read, by reference, grown by the
// distance view's radius on the way in — and probes emit build elements
// rebuilt from those arrays.
package grid

import (
	"math"
	"slices"

	"repro/internal/geom"
)

// targetPerCell is the number of build elements automatic sizing aims for per
// occupied cell, per the guidance of [11] (cells comparable to element extent,
// few elements per cell).
const targetPerCell = 4

// maxCells caps the grid so degenerate configurations cannot exhaust memory.
const maxCells = 1 << 22

// Grid is a uniform spatial hash over one element set.
//
// A Grid is confined to one goroutine: Probe mutates the Comparisons
// counter. The parallel TRANSFORMERS join relies on this layout — every
// worker builds its own grids (Join constructs a private one per call), so
// comparison counting needs no atomics and stays off the shared-memory bus.
//
// The zero Grid is empty and ready for Reset, which rebuilds it over another
// element set inside the arrays it already holds: a join that builds one grid
// per pivot keeps a single Grid and stops allocating once it has seen its
// largest build set.
type Grid struct {
	origin   geom.Point
	cellSize [3]float64
	dims     [3]int
	extent   geom.Box // origin + dims*cellSize per dimension
	// Cell ci lists the build elements items[starts[ci]:starts[ci+1]], in
	// element order: every cell in one flat array, sized exactly.
	starts []int32
	items  []int32
	// soa holds the build elements, in struct-of-arrays layout so Probe's
	// per-cell candidate scan runs as a batched filter over flat bound
	// arrays; hits is its reused survivor scratch (single-goroutine
	// confinement makes a plain field safe).
	soa  geom.SoA
	hits []int32
	// Comparisons counts element MBB intersection tests performed by probes
	// against this grid (the paper's "#intersection tests" metric).
	Comparisons uint64
}

// Batch is one side of a join as the join reads it in place: the elements of
// Runs, in order, each box grown by Grow as geom.Box.Grow grows it (Grow 0
// takes them as stored). The runs are only read.
type Batch struct {
	Runs [][]geom.Element
	Grow float64
}

// Build constructs a grid over the build-side elements. An empty build set
// yields a usable empty grid.
func Build(elems []geom.Element) *Grid {
	g := &Grid{}
	g.Reset(Batch{Runs: [][]geom.Element{elems}})
	return g
}

// Reset rebuilds g over build, keeping no reference to its runs, and zeroes
// Comparisons.
func (g *Grid) Reset(build Batch) {
	g.soa.LoadGrown(build.Runs, build.Grow)
	g.Comparisons = 0
	n := g.soa.Len()
	mbb := g.mbb()
	if n == 0 {
		g.origin = geom.Point{}
		g.dims = [3]int{1, 1, 1}
		g.cellSize = [3]float64{1, 1, 1}
		g.extent = geom.Box{}
		g.starts = append(g.starts[:0], 0, 0)
		g.items = g.items[:0]
		return
	}
	g.origin = mbb.Lo

	wantCells := float64(n) / targetPerCell
	if wantCells < 1 {
		wantCells = 1
	}
	if wantCells > maxCells {
		wantCells = maxCells
	}
	// Cube cells sized so the grid over the data MBB has ~wantCells cells,
	// but never smaller than the average element extent — cells much smaller
	// than elements explode replication for no gain [11].
	vol := mbb.Volume()
	if vol <= 0 {
		vol = 1
	}
	side := math.Cbrt(vol / wantCells)
	if avg := g.averageSide(); side < avg {
		side = avg
	}
	total := 1
	for d := 0; d < geom.Dims; d++ {
		g.cellSize[d] = side
		n := int(math.Ceil(mbb.Side(d) / side))
		if n < 1 {
			n = 1
		}
		g.dims[d] = n
		total *= n
	}
	// Re-cap after rounding.
	for total > maxCells {
		for d := 0; d < geom.Dims; d++ {
			if g.dims[d] > 1 {
				total = total / g.dims[d]
				g.dims[d] = (g.dims[d] + 1) / 2
				g.cellSize[d] *= 2
				total *= g.dims[d]
			}
		}
	}
	g.extent.Lo = g.origin
	for d := 0; d < geom.Dims; d++ {
		g.extent.Hi[d] = g.origin[d] + float64(g.dims[d])*g.cellSize[d]
	}
	// Counting sort of (cell, element) assignments: count per cell, prefix
	// sum into start offsets, then place — each cell's run ends up in element
	// order, as appending per cell would leave it.
	g.starts = slices.Grow(g.starts[:0], total+1)[:total+1]
	clear(g.starts)
	// Both passes read the runs, grown again, not the SoA: one element's box
	// is one cache line there and six scattered loads here.
	for _, run := range build.Runs {
		for _, e := range run {
			e.Box.Grow(build.Grow)
			g.visitCells(e.Box, func(ci int) { g.starts[ci+1]++ })
		}
	}
	for ci := 0; ci < total; ci++ {
		g.starts[ci+1] += g.starts[ci]
	}
	assigned := int(g.starts[total])
	g.items = slices.Grow(g.items[:0], assigned)[:assigned]
	i := int32(0)
	for _, run := range build.Runs {
		for _, e := range run {
			e.Box.Grow(build.Grow)
			g.visitCells(e.Box, func(ci int) {
				g.items[g.starts[ci]] = i
				g.starts[ci]++
			})
			i++
		}
	}
	// Placing advanced every start to its cell's end: shift back by one cell.
	copy(g.starts[1:], g.starts[:total])
	g.starts[0] = 0
}

// elem returns build element i as Reset loaded it.
func (g *Grid) elem(i int32) geom.Element {
	s := &g.soa
	return geom.Element{ID: s.ID[i], Box: geom.Box{
		Lo: geom.Point{s.Lo[0][i], s.Lo[1][i], s.Lo[2][i]},
		Hi: geom.Point{s.Hi[0][i], s.Hi[1][i], s.Hi[2][i]},
	}}
}

// mbb is geom.MBBOf of the build elements, by MBBOf's comparisons in element
// order, so every bound is the one MBBOf returns bit for bit.
func (g *Grid) mbb() geom.Box {
	mbb := geom.EmptyBox()
	for d := 0; d < geom.Dims; d++ {
		for _, v := range g.soa.Lo[d] {
			if v < mbb.Lo[d] {
				mbb.Lo[d] = v
			}
		}
		for _, v := range g.soa.Hi[d] {
			if v > mbb.Hi[d] {
				mbb.Hi[d] = v
			}
		}
	}
	return mbb
}

// averageSide returns the mean box extent over all dimensions and build
// elements, summed element by element as a loop over the elements would.
func (g *Grid) averageSide() float64 {
	var s float64
	n := g.soa.Len()
	for i := 0; i < n; i++ {
		for d := 0; d < geom.Dims; d++ {
			s += g.soa.Hi[d][i] - g.soa.Lo[d][i]
		}
	}
	return s / float64(n*geom.Dims)
}

// cellRange returns the inclusive cell index range overlapped by the box in
// dimension d, clamped to the grid on both sides so boxes that touch the
// grid boundary (including its upper face) still map to the boundary cells.
func (g *Grid) cellRange(b geom.Box, d int) (int, int) {
	lo := int(math.Floor((b.Lo[d] - g.origin[d]) / g.cellSize[d]))
	hi := int(math.Floor((b.Hi[d] - g.origin[d]) / g.cellSize[d]))
	lo = clampIdx(lo, g.dims[d])
	hi = clampIdx(hi, g.dims[d])
	return lo, hi
}

func clampIdx(i, dim int) int {
	if i < 0 {
		return 0
	}
	if i >= dim {
		return dim - 1
	}
	return i
}

// visitCells calls fn with the linear index of every grid cell the box
// overlaps (touch-inclusive). Boxes strictly outside the grid extent visit
// nothing.
func (g *Grid) visitCells(b geom.Box, fn func(ci int)) {
	if !b.Intersects(g.extent) {
		return
	}
	x0, x1 := g.cellRange(b, 0)
	y0, y1 := g.cellRange(b, 1)
	z0, z1 := g.cellRange(b, 2)
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			for z := z0; z <= z1; z++ {
				fn((x*g.dims[1]+y)*g.dims[2] + z)
			}
		}
	}
}

// cellOf returns the linear index of the cell containing point p, or -1 when
// p lies outside the grid.
func (g *Grid) cellOf(p geom.Point) int {
	var idx [3]int
	for d := 0; d < geom.Dims; d++ {
		i := int(math.Floor((p[d] - g.origin[d]) / g.cellSize[d]))
		if i < 0 || i >= g.dims[d] {
			return -1
		}
		idx[d] = i
	}
	return (idx[0]*g.dims[1]+idx[1])*g.dims[2] + idx[2]
}

// Probe reports every build element whose MBB intersects q's MBB, exactly
// once, via emit.
func (g *Grid) Probe(q geom.Element, emit func(build geom.Element)) {
	g.visitCells(q.Box, func(ci int) {
		cell := g.items[g.starts[ci]:g.starts[ci+1]]
		g.Comparisons += uint64(len(cell))
		g.hits = g.soa.FilterGather(q.Box, cell, g.hits[:0])
		for _, bi := range g.hits {
			// Reference-point dedup: report only in the cell holding the
			// intersection's low corner — the componentwise max of the two
			// low bounds, since survivors are known to intersect. The corner
			// always lies inside the grid, since both boxes overlap cells.
			// (The builtin max is math.Max, NaN and signed zeros included,
			// without the call.)
			var lo geom.Point
			for d := 0; d < geom.Dims; d++ {
				lo[d] = max(g.soa.Lo[d][bi], q.Box.Lo[d])
			}
			if g.cellOf(clampIntoGrid(g, lo)) == ci {
				emit(g.elem(bi))
			}
		}
	})
}

// clampIntoGrid pulls the reference point into the grid's extent so pairs
// whose intersection corner falls outside the build MBB (possible when the
// probe box protrudes) are still attributed to exactly one cell.
func clampIntoGrid(g *Grid, p geom.Point) geom.Point {
	for d := 0; d < geom.Dims; d++ {
		lo, hi := g.extent.Lo[d], g.extent.Hi[d]
		if p[d] < lo {
			p[d] = lo
		}
		if p[d] >= hi {
			p[d] = math.Nextafter(hi, math.Inf(-1))
		}
	}
	return p
}

// Join builds a grid over build and probes it with every element of probe,
// emitting each intersecting (build, probe) pair exactly once. It returns
// the number of element comparisons performed.
func Join(build, probe []geom.Element, emit func(b, p geom.Element)) uint64 {
	return new(Grid).Join(Batch{Runs: [][]geom.Element{build}}, Batch{Runs: [][]geom.Element{probe}}, emit)
}

// Join is the package-level Join over two batches, run inside g's arrays (see
// Reset). Each probe element is grown as it is probed; both sides' elements
// reach emit grown.
func (g *Grid) Join(build, probe Batch, emit func(b, p geom.Element)) uint64 {
	g.Reset(build)
	for _, run := range probe.Runs {
		for _, q := range run {
			q.Box.Grow(probe.Grow)
			g.Probe(q, func(b geom.Element) { emit(b, q) })
		}
	}
	return g.Comparisons
}
