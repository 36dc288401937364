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
// A Grid keeps no copy of an element: Reset keeps, for each build element,
// its grown box rounded outward to float32 and a locator of it in the runs it
// is handed — 28 bytes an element, in a geom.SoA — and a TRANSFORMERS join
// hands it the pages it read, by reference, grown by the distance view's
// radius. A probe filters a cell's list on the float32 bounds and decides each
// survivor by the float64 test on the run's own element, grown on the fly;
// that element is what it emits. The candidates tested, the pairs and their
// order are those of a grid over float64 copies.
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
// worker builds its own grids (each of its pooled sides keeps one; the
// package-level Join makes a private one per call), so comparison counting
// needs no atomics and stays off the shared-memory bus.
//
// The zero Grid is empty and ready for Reset, which rebuilds it over another
// element set inside the arrays it already holds: a join that builds one grid
// per pivot keeps a single Grid and stops allocating once it has seen its
// largest build set.
type Grid struct {
	origin   geom.Point
	cellSize [3]float64
	dims     [3]int
	top      [3]float64 // dims, as floats
	extent   geom.Box   // origin + dims*cellSize per dimension
	// Cell ci lists the build elements items[starts[ci]:starts[ci+1]], in
	// element order: every cell in one flat array, sized exactly.
	starts []int32
	items  []int32
	// soa is the filter over the build elements: their float32 bounds in
	// flat columns, so Probe's per-cell candidate scan is a batched filter,
	// and their locators in the runs. hits is its reused survivor scratch
	// (single-goroutine confinement makes a plain field safe).
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

// Build constructs a grid over the build-side elements, which it reads until
// it is rebuilt. An empty build set yields a usable empty grid.
func Build(elems []geom.Element) *Grid {
	g := &Grid{}
	g.Reset(Batch{Runs: [][]geom.Element{elems}})
	return g
}

// Reset rebuilds g over build, which it reads until the next Reset or the end
// of a Join, and zeroes Comparisons.
func (g *Grid) Reset(build Batch) {
	mbb, sides := g.soa.LoadGrown(build.Runs, build.Grow)
	g.Comparisons = 0
	n := g.soa.Len()
	if n == 0 {
		g.origin = geom.Point{}
		g.dims = [3]int{1, 1, 1}
		g.top = [3]float64{1, 1, 1}
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
	if !(vol > 0) { // flat, or an infinite side times a zero one
		vol = 1
	}
	side := math.Cbrt(vol / wantCells)
	if avg := sides / float64(n*geom.Dims); side < avg {
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
		g.top[d] = float64(g.dims[d])
		// Rounding can leave origin + dims*cellSize short of the MBB; the
		// extent still covers every build element.
		g.extent.Hi[d] = max(g.origin[d]+float64(g.dims[d])*g.cellSize[d], mbb.Hi[d])
	}
	if total == 1 {
		// One cell lists every element, as the passes below would: the
		// extent covers the MBB, so every box (Lo <= Hi, no NaN) meets it.
		g.starts = append(g.starts[:0], 0, int32(n))
		g.items = slices.Grow(g.items[:0], n)[:n]
		for i := range g.items {
			g.items[i] = int32(i)
		}
		return
	}
	// Counting sort of (cell, element) assignments: count per cell, prefix
	// sum into start offsets, then place — each cell's run ends up in element
	// order, as appending per cell would leave it. The cells come from the
	// exact bounds, so both passes read the runs, grown again, not the
	// float32 columns.
	g.starts = slices.Grow(g.starts[:0], total+1)[:total+1]
	clear(g.starts)
	for _, run := range build.Runs {
		for _, e := range run {
			e.Box.Grow(build.Grow)
			c := g.cells(&e.Box)
			for x := c.x0; x <= c.x1; x++ {
				for y := c.y0; y <= c.y1; y++ {
					for z, ci := c.z0, g.cellIndex(x, y, c.z0); z <= c.z1; z, ci = z+1, ci+1 {
						g.starts[ci+1]++
					}
				}
			}
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
			c := g.cells(&e.Box)
			for x := c.x0; x <= c.x1; x++ {
				for y := c.y0; y <= c.y1; y++ {
					for z, ci := c.z0, g.cellIndex(x, y, c.z0); z <= c.z1; z, ci = z+1, ci+1 {
						g.items[g.starts[ci]] = i
						g.starts[ci]++
					}
				}
			}
			i++
		}
	}
	// Placing advanced every start to its cell's end: shift back by one cell.
	copy(g.starts[1:], g.starts[:total])
	g.starts[0] = 0
}

// cell returns the index of the cell holding coordinate v in dimension d,
// clamped to the grid, so boxes that reach past it — its upper face
// included — map to the boundary cells. The index is monotone in v.
func (g *Grid) cell(v float64, d int) int {
	switch x := (v - g.origin[d]) / g.cellSize[d]; {
	case x >= g.top[d]:
		return g.dims[d] - 1
	case x >= 1:
		return int(x)
	default: // below the grid's second cell, or NaN
		return 0
	}
}

// span is an inclusive range of cells in each dimension.
type span struct{ x0, y0, z0, x1, y1, z1 int }

// cells returns the cells b overlaps (touch-inclusive), an empty span when b
// misses the grid's extent.
func (g *Grid) cells(b *geom.Box) span {
	if e := &g.extent; b.Lo[0] > e.Hi[0] || e.Lo[0] > b.Hi[0] ||
		b.Lo[1] > e.Hi[1] || e.Lo[1] > b.Hi[1] ||
		b.Lo[2] > e.Hi[2] || e.Lo[2] > b.Hi[2] {
		return span{x0: 1}
	}
	return span{
		g.cell(b.Lo[0], 0), g.cell(b.Lo[1], 1), g.cell(b.Lo[2], 2),
		g.cell(b.Hi[0], 0), g.cell(b.Hi[1], 1), g.cell(b.Hi[2], 2),
	}
}

func (g *Grid) cellIndex(x, y, z int) int { return (x*g.dims[1]+y)*g.dims[2] + z }

// Probe reports every build element whose MBB intersects q's MBB, exactly
// once, via emit.
func (g *Grid) Probe(q geom.Element, emit func(build geom.Element)) {
	c := g.cells(&q.Box)
	for x := c.x0; x <= c.x1; x++ {
		for y := c.y0; y <= c.y1; y++ {
			for z, ci := c.z0, g.cellIndex(x, y, c.z0); z <= c.z1; z, ci = z+1, ci+1 {
				cell := g.items[g.starts[ci]:g.starts[ci+1]]
				if len(cell) == 0 {
					continue
				}
				g.Comparisons += uint64(len(cell))
				g.hits = g.soa.Candidates(q.Box, cell, g.hits[:0])
				for _, bi := range g.hits {
					b := g.soa.At(bi)
					if !b.Box.Intersects(q.Box) {
						continue // the float32 bounds let it through
					}
					// Reference-point dedup: report only in the cell holding
					// the intersection's low corner, the componentwise max of
					// the two low bounds. Cell indexes are monotone, so that
					// cell is, per dimension, the later of the two boxes'
					// first cells; both are at most this one, so it is this
					// one where either box starts here.
					if (x == c.x0 || g.cell(b.Box.Lo[0], 0) == x) &&
						(y == c.y0 || g.cell(b.Box.Lo[1], 1) == y) &&
						(z == c.z0 || g.cell(b.Box.Lo[2], 2) == z) {
						emit(b)
					}
				}
			}
		}
	}
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
	g.soa.Release()
	return g.Comparisons
}
