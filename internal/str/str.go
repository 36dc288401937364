// Package str implements the Sort-Tile-Recursive (STR) partitioning
// algorithm of Leutenegger et al. (ICDE '97) in three dimensions.
//
// STR is the data-oriented partitioner everything in this repository is
// built on: TRANSFORMERS uses it to form space units and space nodes (paper
// §IV), and the R-tree baseline is bulkloaded with it (paper §VII-A).
//
// The partitioner sorts elements by the x-coordinate of their centers and
// cuts them into vertical slabs, sorts each slab by y and cuts rows, then
// sorts each row by z and cuts final partitions of the requested capacity.
// Every sort orders 16-byte (center key, index) records with the radix sort
// the inmem partitioner uses (geom.KeySorter) and then moves each element
// once, in place; the slabs, which share nothing after the x-cut, are processed on as
// many goroutines as there are processors.
// Besides the tight MBB of each partition's element boxes (the page MBB),
// it derives the gap-free region each partition covers from the splitting
// planes (the partition MBB of the paper): regions of sibling partitions
// tile the world box exactly, which is what lets the adaptive walk navigate
// between neighboring partitions without falling into dead space.
package str

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// Partition describes one STR partition over a reordered element slice.
type Partition struct {
	// Start and End delimit the partition's elements as s[Start:End] in the
	// slice returned by Split.
	Start, End int
	// PageMBB is the tight bounding box of the member element boxes ("page
	// MBB" in the paper): the extent of the actual data.
	PageMBB geom.Box
	// Region is the box delimited by the STR splitting planes ("partition
	// MBB" in the paper). Regions of all partitions tile the world box with
	// no gaps; element boxes may protrude beyond their Region since elements
	// are assigned by center point.
	Region geom.Box
}

// Count returns the number of elements in the partition.
func (p Partition) Count() int { return p.End - p.Start }

// Split reorders elems in place into STR order and returns the partitions,
// each holding at most capacity elements. The world box bounds the outermost
// partition regions; it is grown to cover all element centers if necessary.
// Every level orders elements by center coordinate, then ID, then the
// position the previous level left them in (input position at the first), so
// the result is a function of the input alone — whatever GOMAXPROCS is and
// even when IDs repeat. Centers are assumed not to be NaN. Split allocates
// some 32 bytes of sort records per element, and panics when capacity < 1
// (a programming error).
func Split(elems []geom.Element, capacity int, world geom.Box) []Partition {
	if capacity < 1 {
		panic(fmt.Sprintf("str: capacity %d < 1", capacity))
	}
	if len(elems) == 0 {
		return nil
	}
	// Ensure every center is inside the world so regions tile all the data.
	for _, e := range elems {
		c := e.Box.Center()
		world = world.Union(geom.Box{Lo: c, Hi: c})
	}

	n := len(elems)
	numParts := (n + capacity - 1) / capacity
	s := int(math.Ceil(math.Cbrt(float64(numParts))))
	if s < 1 {
		s = 1
	}
	slabSize := (n + s - 1) / s

	// Splitting-plane coordinates are read right after each level's sort,
	// before the next level reorders elements within the cut ranges.
	keys := make([]geom.SortKey, n)
	sortByDim(elems, keys, 0, new(geom.KeySorter))
	xCuts, xPlanes := cuts(elems, slabSize, 0, world.Lo[0], world.Hi[0])

	// Slabs own disjoint ranges of elems and keys, so the workers share no
	// memory they write; slabParts keeps their partitions in slab
	// order, whichever worker got to a slab.
	slabParts := make([][]Partition, len(xCuts)-1)
	var next atomic.Int32
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(slabParts)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var ks geom.KeySorter
			for si := int(next.Add(1)) - 1; si < len(slabParts); si = int(next.Add(1)) - 1 {
				lo, hi := xCuts[si], xCuts[si+1]
				slabParts[si] = splitSlab(elems[lo:hi], keys[lo:hi], lo, s, capacity,
					world, xPlanes[si], xPlanes[si+1], &ks)
			}
		}()
	}
	wg.Wait()

	out := make([]Partition, 0, numParts)
	for _, ps := range slabParts {
		out = append(out, ps...)
	}
	return out
}

// splitSlab finishes one x-slab: slab is the slab's range of the element
// slice, keys the same range of the record slice, and base the range's
// offset, which partitions report their positions against.
func splitSlab(slab []geom.Element, keys []geom.SortKey, base, s, capacity int,
	world geom.Box, xLo, xHi float64, ks *geom.KeySorter) []Partition {
	var out []Partition
	sortByDim(slab, keys, 1, ks)
	rowSize := (len(slab) + s - 1) / s
	yCuts, yPlanes := cuts(slab, rowSize, 1, world.Lo[1], world.Hi[1])
	for ri := 0; ri+1 < len(yCuts); ri++ {
		rowStart, rowEnd := yCuts[ri], yCuts[ri+1]
		row := slab[rowStart:rowEnd]
		sortByDim(row, keys[rowStart:rowEnd], 2, ks)
		zCuts, zPlanes := cuts(row, capacity, 2, world.Lo[2], world.Hi[2])
		for pi := 0; pi+1 < len(zCuts); pi++ {
			pStart, pEnd := zCuts[pi], zCuts[pi+1]
			out = append(out, Partition{
				Start:   base + rowStart + pStart,
				End:     base + rowStart + pEnd,
				PageMBB: geom.MBBOf(row[pStart:pEnd]),
				Region: geom.Box{
					Lo: geom.Point{xLo, yPlanes[ri], zPlanes[pi]},
					Hi: geom.Point{xHi, yPlanes[ri+1], zPlanes[pi+1]},
				},
			})
		}
	}
	return out
}

// sortByDim orders elems by center coordinate of the given dimension, then
// ID, then the position they came in. keys is scratch of the same length:
// the sort runs on it, and the elements are then moved once each. Equal
// coordinates are what the key sort leaves in arrival order; those runs are
// sorted again with the ID as the key, which — that sort being stable —
// leaves equal IDs in arrival order.
func sortByDim(elems []geom.Element, keys []geom.SortKey, dim int, ks *geom.KeySorter) {
	for i := range elems {
		c := (elems[i].Box.Lo[dim] + elems[i].Box.Hi[dim]) / 2
		if c == 0 {
			c = 0 // -0 and +0 are one coordinate, and must be one key
		}
		keys[i] = geom.SortKey{K: geom.FloatSortable(c), I: int32(i)}
	}
	ks.Sort(keys)
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].K == keys[lo].K {
			hi++
		}
		if run := keys[lo:hi]; len(run) > 1 {
			for j := range run {
				run[j].K = elems[run[j].I].ID
			}
			ks.Sort(run)
		}
		lo = hi
	}
	// Apply the permutation in place, cycle by cycle: position i takes the
	// element from keys[i].I, whose place is filled from the next position
	// of the cycle, until the cycle returns to i. A placed position is
	// marked by pointing its key at itself.
	for i := range keys {
		if int(keys[i].I) == i {
			continue
		}
		first := elems[i]
		j := i
		for {
			from := int(keys[j].I)
			keys[j].I = int32(j)
			if from == i {
				elems[j] = first
				break
			}
			elems[j] = elems[from]
			j = from
		}
	}
}

// cuts computes the cut positions for chunks of chunkSize elements over the
// sorted slice, and the splitting-plane coordinate at every cut in dimension
// dim: the midpoint between the centers on either side of an interior cut,
// and the world edges for the outermost cuts.
func cuts(sorted []geom.Element, chunkSize, dim int, worldLo, worldHi float64) (positions []int, planes []float64) {
	positions = append(positions, 0)
	planes = append(planes, worldLo)
	for pos := chunkSize; pos < len(sorted); pos += chunkSize {
		a := sorted[pos-1].Box.Center()[dim]
		b := sorted[pos].Box.Center()[dim]
		positions = append(positions, pos)
		planes = append(planes, (a+b)/2)
	}
	positions = append(positions, len(sorted))
	planes = append(planes, worldHi)
	return positions, planes
}
