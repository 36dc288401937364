package inmem

import (
	"math"

	"repro/internal/geom"
)

// maxResolution caps the prune grid at 64³ cells, a 1.1 MB table. A finer grid
// prunes more, but its table is transient heap that grows with the cube: at
// 128 a side, uniform 100K × dense_cluster 100K keeps 9 257 elements where 64
// keeps 42 942, with an 8.8 MB table and a partition build of 45 ms against
// 28 (2-core x86-64).
const maxResolution = 64

// resolution is the prune grid's cells a side for n elements: ⌊∛n⌋, so the
// grid holds about one cell an element, between 1 and maxResolution.
func resolution(n int) int {
	r := int(math.Cbrt(float64(n)))
	for (r+1)*(r+1)*(r+1) <= n { // Cbrt may land a hair below a cube
		r++
	}
	return max(1, min(r, maxResolution))
}

// prune returns the positions in a and in b, ascending, of the elements whose
// grown box touches a cell of an r³ grid over world that a grown box of the
// other side touches too: a is filtered against all of b, then b against the
// a that survived. Two grown boxes that intersect share a point, and the cell
// map is monotone and clamped, so that point's cell lies in both boxes' cell
// ranges: an element with a partner is always kept. world must hold every
// grown box of both inputs.
func prune(a, b Input, world geom.Box, r int) (keptA, keptB []int32) {
	if a.Base.Len() == 0 || b.Base.Len() == 0 {
		return nil, nil
	}
	g := newCellGrid(world, r)
	g.mark(b, nil)
	keptA = g.filter(a)
	g.mark(a, keptA)
	keptB = g.filter(b)
	return keptA, keptB
}

// cellGrid is the prune's occupancy grid: r cells a side over a world box,
// and, once marked, a summed-volume table that counts the occupied cells of
// any cell range with eight lookups.
type cellGrid struct {
	r     int
	lo    [geom.Dims]float64
	scale [geom.Dims]float64 // cells per unit; 0 puts the dimension in one cell
	// sum is (r+2)³ entries, x-major, a dimension's cell c at index c+1: index
	// 0 is the zero plane the table's differences start from, and index r+1
	// takes the decrements past the last cell. sx and sy are the x and y
	// strides.
	sum    []int32
	sx, sy int
}

func newCellGrid(world geom.Box, r int) *cellGrid {
	n := r + 2
	g := &cellGrid{r: r, sum: make([]int32, n*n*n), sx: n * n, sy: n}
	for d := 0; d < geom.Dims; d++ {
		g.lo[d] = world.Lo[d]
		// A zero side makes the scale infinite and a side wider than float64
		// makes it zero; NaN and a negative side (no elements) fail the test.
		// Each leaves the dimension one cell, which prunes nothing on it.
		if s := float64(r) / world.Side(d); s > 0 && !math.IsInf(s, 0) {
			g.scale[d] = s
		}
	}
	return g
}

// cell maps a grown coordinate to its cell on dimension d. Subtraction and
// multiplication by a non-negative scale round monotonically, as do the floor
// and the clamps, so v ≤ w maps to cell(v) ≤ cell(w).
func (g *cellGrid) cell(d int, v float64) int {
	x := (v - g.lo[d]) * g.scale[d]
	switch {
	case !(x >= 0): // NaN too: ∞ × 0 when the scale is zero
		return 0
	case x >= float64(g.r):
		return g.r - 1
	}
	return int(x)
}

// corners returns the table offsets of the x, y and z planes that bound the
// cell range the grown box of e covers, each shifted by one cell: the range
// is x0 < x ≤ x1 (and so on) in table indexes.
func (g *cellGrid) corners(e *geom.Element, grow float64) (x0, x1, y0, y1, z0, z1 int) {
	b := &e.Box
	x0, x1 = g.cell(0, b.Lo[0]-grow)*g.sx, (g.cell(0, b.Hi[0]+grow)+1)*g.sx
	y0, y1 = g.cell(1, b.Lo[1]-grow)*g.sy, (g.cell(1, b.Hi[1]+grow)+1)*g.sy
	z0, z1 = g.cell(2, b.Lo[2]-grow), g.cell(2, b.Hi[2]+grow)+1
	return
}

// mark makes the table count the cells that the grown boxes of in's elements
// at kept (every element when kept is nil) cover. Each box adds ±1 at the
// eight corners of its range, a prefix pass turns that into how many boxes
// cover each cell, and a second, which counts a cell once however many boxes
// cover it, makes the summed-volume table.
func (g *cellGrid) mark(in Input, kept []int32) {
	clear(g.sum)
	s := g.sum
	add := func(e *geom.Element) {
		x0, x1, y0, y1, z0, z1 := g.corners(e, in.Grow)
		// The range's first cell is one past each lower plane, and its
		// decrements go one past each upper one.
		x0, y0, z0 = x0+g.sx, y0+g.sy, z0+1
		x1, y1, z1 = x1+g.sx, y1+g.sy, z1+1
		s[x0+y0+z0]++
		s[x0+y0+z1]--
		s[x0+y1+z0]--
		s[x0+y1+z1]++
		s[x1+y0+z0]--
		s[x1+y0+z1]++
		s[x1+y1+z0]++
		s[x1+y1+z1]--
	}
	if kept == nil {
		for _, part := range in.Base.Chunks() {
			for i := range part {
				add(&part[i])
			}
		}
	} else {
		for _, pos := range kept {
			add(in.at(pos))
		}
	}
	g.prefix(false)
	g.prefix(true)
}

// prefix replaces the table by its inclusive prefix sums, of each entry's
// sign when occupancy is set, in one pass: a running sum along the row, plus
// the sums before the row on y and on x, less the one before it on both. The
// index-0 planes hold no difference, so they start every sum at zero.
func (g *cellGrid) prefix(occupancy bool) {
	n, s, sx, sy := g.r+2, g.sum, g.sx, g.sy
	for x := sx; x < len(s); x += sx {
		for y := x + sy; y < x+sx; y += sy {
			row := s[y : y+n]
			py, px, pxy := s[y-sy:][:len(row)], s[y-sx:][:len(row)], s[y-sx-sy:][:len(row)]
			acc := int32(0)
			for z := 1; z < len(row); z++ {
				v := row[z]
				if occupancy && v > 0 {
					v = 1
				}
				acc += v
				row[z] = acc + py[z] + px[z] - pxy[z]
			}
		}
	}
}

// filter returns the positions of in's elements whose grown box covers a
// marked cell: the table's count over the range, by inclusion and exclusion
// of its eight corners, is positive.
func (g *cellGrid) filter(in Input) []int32 {
	out := make([]int32, 0, in.Base.Len())
	s := g.sum
	pos := int32(0)
	for _, part := range in.Base.Chunks() {
		for i := range part {
			x0, x1, y0, y1, z0, z1 := g.corners(&part[i], in.Grow)
			if s[x1+y1+z1]-s[x1+y1+z0]-s[x1+y0+z1]+s[x1+y0+z0]-
				s[x0+y1+z1]+s[x0+y1+z0]+s[x0+y0+z1]-s[x0+y0+z0] > 0 {
				out = append(out, pos)
			}
			pos++
		}
	}
	return out
}
