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
// once: in place, or — when the input comes in several pieces, as an upload
// is decoded — by gathering the pieces into the one array the partitions
// index. The first level's key pass and gather split the elements into
// ranges, one per processor, and its sort runs on one goroutine; the slabs,
// which share nothing after the x-cut, are processed one per goroutine at a
// time.
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
	"sort"
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
	_, parts := SplitPieces([][]geom.Element{elems}, capacity, world)
	return parts
}

// SplitPieces is Split over the concatenation of pieces, and returns the
// array the partitions index with them. One piece is that array, reordered in
// place as Split reorders it. Several are only read — the caller may read
// their elements while SplitPieces runs — and the first level gathers them in
// its sorted order into a new exact-length array, on as many goroutines as
// there are processors: the one move each element makes into the array,
// where flattening the pieces first would make two. It then clears pieces,
// the slice of them, so that for the rest of the split nothing its callers
// hold through that slice keeps the pieces alive.
func SplitPieces(pieces [][]geom.Element, capacity int, world geom.Box) ([]geom.Element, []Partition) {
	if capacity < 1 {
		panic(fmt.Sprintf("str: capacity %d < 1", capacity))
	}
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	if n == 0 {
		return nil, nil
	}
	numParts := (n + capacity - 1) / capacity
	s := int(math.Ceil(math.Cbrt(float64(numParts))))
	if s < 1 {
		s = 1
	}
	slabSize := (n + s - 1) / s

	// The first level's records, in input order, and the world grown to
	// every center, so that regions tile all the data.
	keys, world := firstKeys(pieces, n, world)
	var elems []geom.Element
	if len(pieces) == 1 {
		elems = pieces[0]
		orderKeys(keys, new(geom.KeySorter), func(i int32) uint64 { return elems[i].ID })
		permute(elems, keys)
	} else {
		orderKeys(keys, new(geom.KeySorter), idOf(pieces))
		elems = gather(pieces, keys)
		clear(pieces)
	}
	// Splitting-plane coordinates are read right after each level's sort,
	// before the next level reorders elements within the cut ranges.
	xCuts, xPlanes := cuts(elems, slabSize, 0, world.Lo[0], world.Hi[0])

	// Slabs own disjoint ranges of elems and keys, so the workers share no
	// memory they write; slabParts keeps their partitions in slab
	// order, whichever worker got to a slab.
	slabParts := make([][]Partition, len(xCuts)-1)
	var next atomic.Int32
	forEachWorker(min(runtime.GOMAXPROCS(0), len(slabParts)), func(int) {
		var ks geom.KeySorter
		for si := int(next.Add(1)) - 1; si < len(slabParts); si = int(next.Add(1)) - 1 {
			lo, hi := xCuts[si], xCuts[si+1]
			slabParts[si] = splitSlab(elems[lo:hi], keys[lo:hi], lo, s, capacity,
				world, xPlanes[si], xPlanes[si+1], &ks)
		}
	})

	out := make([]Partition, 0, numParts)
	for _, ps := range slabParts {
		out = append(out, ps...)
	}
	return elems, out
}

// idOf returns the ID of element i of the pieces' concatenation. It finds the
// piece by binary search: the first level asks only for elements that tie on
// their center.
func idOf(pieces [][]geom.Element) func(i int32) uint64 {
	starts := make([]int, len(pieces)) // starts[k]: position of pieces[k][0]
	for k := 1; k < len(pieces); k++ {
		starts[k] = starts[k-1] + len(pieces[k-1])
	}
	return func(i int32) uint64 {
		k := sort.SearchInts(starts, int(i)+1) - 1 // the last piece starting at or before i
		return pieces[k][int(i)-starts[k]].ID
	}
}

// firstKeys returns the first level's records, in input order, and world
// grown to cover every center. The workers each take a range of the pieces
// and bound its centers with min and max, which keep -0 where Union does, so
// the union of their boxes is the world Union would give center by center.
func firstKeys(pieces [][]geom.Element, n int, world geom.Box) ([]geom.SortKey, geom.Box) {
	keys := make([]geom.SortKey, n)
	bounds := make([]geom.Box, workersFor(n))
	for w := range bounds {
		bounds[w] = world
	}
	inRanges(pieces, len(bounds), func(w, at int, p []geom.Element) {
		// One variable a coordinate, not a Point: the compiler keeps these
		// in registers, where it keeps an array in memory.
		lx, ly, lz := bounds[w].Lo[0], bounds[w].Lo[1], bounds[w].Lo[2]
		hx, hy, hz := bounds[w].Hi[0], bounds[w].Hi[1], bounds[w].Hi[2]
		for k := range p {
			b := &p[k].Box
			x, y, z := (b.Lo[0]+b.Hi[0])/2, (b.Lo[1]+b.Hi[1])/2, (b.Lo[2]+b.Hi[2])/2
			lx, ly, lz = min(lx, x), min(ly, y), min(lz, z)
			hx, hy, hz = max(hx, x), max(hy, y), max(hz, z)
			keys[at+k] = geom.SortKey{K: centerKey(x), I: int32(at + k)}
		}
		bounds[w] = geom.Box{Lo: geom.Point{lx, ly, lz}, Hi: geom.Point{hx, hy, hz}}
	})
	for _, b := range bounds {
		world = world.Union(b)
	}
	return keys, world
}

// gather returns the pieces' concatenation as a new array in the order keys
// gives: element keys[j].I at position j. The sort has freed each record's K,
// which first takes the rank of the element the record's own position names;
// then the workers each read a range of the pieces in order and write every
// element straight to its rank. Both passes split the records over the same
// workers: a rank pass worker reads the I of its own records and writes the
// K of others, which no worker reads.
func gather(pieces [][]geom.Element, keys []geom.SortKey) []geom.Element {
	workers := workersFor(len(keys))
	forEachWorker(workers, func(w int) {
		for j := len(keys) * w / workers; j < len(keys)*(w+1)/workers; j++ {
			keys[keys[j].I].K = uint64(j)
		}
	})
	out := make([]geom.Element, len(keys))
	inRanges(pieces, workers, func(_, at int, p []geom.Element) {
		for k := range p {
			out[keys[at+k].K] = p[k]
		}
	})
	return out
}

// gatherMin is the fewest elements a worker of the first level's passes over
// the elements is started for.
const gatherMin = 1 << 14

// workersFor returns how many workers the first level's passes over n
// elements use.
func workersFor(n int) int {
	return max(min(runtime.GOMAXPROCS(0), n/gatherMin), 1)
}

// inRanges cuts the concatenation of pieces into workers ranges and calls
// fn(w, at, p) on worker w's goroutine for each piece's share p of range w,
// in order, with at the position of p[0] in the concatenation.
func inRanges(pieces [][]geom.Element, workers int, fn func(w, at int, p []geom.Element)) {
	n := 0
	for _, p := range pieces {
		n += len(p)
	}
	forEachWorker(workers, func(w int) {
		lo, hi := n*w/workers, n*(w+1)/workers
		start := 0 // position of p[0]
		for _, p := range pieces {
			if from, to := max(lo-start, 0), min(hi-start, len(p)); from < to {
				fn(w, start+from, p[from:to])
			}
			if start += len(p); start >= hi {
				return
			}
		}
	})
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
// the sort runs on it, and the elements are then moved once each.
func sortByDim(elems []geom.Element, keys []geom.SortKey, dim int, ks *geom.KeySorter) {
	for i := range elems {
		keys[i] = geom.SortKey{K: centerKey((elems[i].Box.Lo[dim] + elems[i].Box.Hi[dim]) / 2), I: int32(i)}
	}
	orderKeys(keys, ks, func(i int32) uint64 { return elems[i].ID })
	permute(elems, keys)
}

// centerKey is the sort key of a center coordinate.
func centerKey(c float64) uint64 {
	if c == 0 {
		c = 0 // -0 and +0 are one coordinate, and must be one key
	}
	return geom.FloatSortable(c)
}

// orderKeys sorts records built in ascending I by key, then by the ID id
// returns for their I, then by I. Equal keys are what the key sort leaves in
// arrival order; those runs are sorted again with the ID as the key, which —
// that sort being stable — leaves equal IDs in arrival order.
func orderKeys(keys []geom.SortKey, ks *geom.KeySorter, id func(i int32) uint64) {
	ks.Sort(keys)
	for lo := 0; lo < len(keys); {
		hi := lo + 1
		for hi < len(keys) && keys[hi].K == keys[lo].K {
			hi++
		}
		if run := keys[lo:hi]; len(run) > 1 {
			for j := range run {
				run[j].K = id(run[j].I)
			}
			ks.Sort(run)
		}
		lo = hi
	}
}

// permute applies the order keys give to elems in place, cycle by cycle:
// position i takes the element from keys[i].I, whose place is filled from the
// next position of the cycle, until the cycle returns to i. A placed position
// is marked by pointing its key at itself.
func permute(elems []geom.Element, keys []geom.SortKey) {
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

// forEachWorker runs fn(0) … fn(workers-1) on a goroutine each, or fn(0)
// inline for one worker, and returns when all have.
func forEachWorker(workers int, fn func(w int)) {
	if workers == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			fn(w)
		}()
	}
	wg.Wait()
}
