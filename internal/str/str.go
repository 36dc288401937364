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
// the inmem partitioner uses (geom.KeySorter) and then moves the elements in
// place — across the chunks of a chunked array as within one slice, so that
// an upload, decoded into chunks, is split where it lies and the split holds
// no second copy of it, only the records and the sorter's scratch (32 bytes
// an element). The first level moves the elements into their slabs and then
// orders each slab, which keeps its moves within a few streams and then
// within a slab (place). A delta merge's input comes in pieces the generation
// it replaces goes on serving: those are only read, and gathered into a new
// array (SplitPieces). The first level's key pass, ranking and slab ordering
// split the work over the processors, and its sort runs on one goroutine; the
// slabs, which share nothing after the x-cut, are processed one per goroutine
// at a time.
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
	return SplitChunked(geom.ChunkedOf(elems), capacity, world)
}

// SplitChunked is Split of a chunked array, reordered in place across its
// chunks as one array: the partitions' positions are the array's, and a
// partition may straddle two chunks. What it allocates beside the elements
// is Split's: the sort records and the sorter's scratch, 32 bytes an
// element, and no copy of them. An upload is decoded into chunks
// (internal/server) and indexed where it lies.
func SplitChunked(elems geom.Chunked, capacity int, world geom.Box) []Partition {
	if capacity < 1 {
		panic(fmt.Sprintf("str: capacity %d < 1", capacity))
	}
	if elems.Len() == 0 {
		return nil
	}
	// The first level's records, in input order, and the world grown to
	// every center, so that regions tile all the data.
	keys, world := firstKeys(elems.Chunks(), elems.Len(), world)
	orderKeys(keys, new(geom.KeySorter), func(i int32) uint64 { return elems.At(int(i)).ID })
	_, slabSize := slabs(elems.Len(), capacity)
	place(elems, keys, slabSize)
	return splitSorted(elems, keys, capacity, world)
}

// SplitPieces is Split over the concatenation of pieces, and returns the
// array the partitions index with them. The pieces are only read — the caller
// may read their elements while SplitPieces runs — and the first level
// gathers them in its sorted order into a new exact-length array, on as many
// goroutines as there are processors: the one move each element makes into
// the array, where flattening the pieces first would make two. It then clears
// pieces, the slice of them, so that for the rest of the split nothing its
// callers hold through that slice keeps the pieces alive. This is how a delta
// merge builds, as the generation it replaces goes on serving from the
// pieces.
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
	keys, world := firstKeys(pieces, n, world)
	orderKeys(keys, new(geom.KeySorter), idOf(pieces))
	elems := gather(pieces, keys)
	clear(pieces)
	return elems, splitSorted(geom.ChunkedOf(elems), keys, capacity, world)
}

// splitSorted finishes a split whose first level has ordered elems by x:
// keys is scratch of the same length, and world covers every center.
func splitSorted(elems geom.Chunked, keys []geom.SortKey, capacity int, world geom.Box) []Partition {
	n := elems.Len()
	s, slabSize := slabs(n, capacity)
	// Splitting-plane coordinates are read right after each level's sort,
	// before the next level reorders elements within the cut ranges.
	xCuts, xPlanes := cuts(elems, 0, n, slabSize, 0, world.Lo[0], world.Hi[0])

	// Slabs own disjoint ranges of elems and keys, so the workers share no
	// memory they write; slabParts keeps their partitions in slab
	// order, whichever worker got to a slab.
	slabParts := make([][]Partition, len(xCuts)-1)
	var next atomic.Int32
	forEachWorker(min(runtime.GOMAXPROCS(0), len(slabParts)), func(int) {
		var ks geom.KeySorter
		for si := int(next.Add(1)) - 1; si < len(slabParts); si = int(next.Add(1)) - 1 {
			lo, hi := xCuts[si], xCuts[si+1]
			slabParts[si] = splitSlab(elems, lo, hi, keys[lo:hi], s, capacity,
				world, xPlanes[si], xPlanes[si+1], &ks)
		}
	})

	out := make([]Partition, 0, (n+capacity-1)/capacity)
	for _, ps := range slabParts {
		out = append(out, ps...)
	}
	return out
}

// slabs returns how many slabs, rows a slab and partitions a row a split of
// n elements into partitions of capacity makes — s, the cube root of the
// partition count — and how many elements a slab holds, the last one fewer.
func slabs(n, capacity int) (s, slabSize int) {
	s = max(int(math.Ceil(math.Cbrt(float64((n+capacity-1)/capacity)))), 1)
	return s, (n + s - 1) / s
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
	workers := rank(keys)
	out := make([]geom.Element, len(keys))
	inRanges(pieces, workers, func(_, at int, p []geom.Element) {
		for k := range p {
			out[keys[at+k].K] = p[k]
		}
	})
	return out
}

// rank turns the records, sorted, into ranks: the K of the record at each
// position becomes the rank of the element that position names — the sort
// has freed every K, and each record's I is read before any K is written
// where the same worker reads it. It returns how many workers it ran, each
// reading the I of its own range of records and writing the K of others,
// which no worker reads.
func rank(keys []geom.SortKey) (workers int) {
	workers = workersFor(len(keys))
	forEachWorker(workers, func(w int) {
		for j := len(keys) * w / workers; j < len(keys)*(w+1)/workers; j++ {
			keys[keys[j].I].K = uint64(j)
		}
	})
	return workers
}

// place moves elems in place into the order the first level's records give,
// sorted: element keys[j].I to position j. Following the permutation's
// cycles over the whole array would take a cache miss on a record and on an
// element at every step, one after the other. place ranks the records
// instead (rank), then distributes the elements, their ranks beside them,
// into their slabs — runs of slabSize ranks — with one cursor a slab, so
// that every pass reads and writes a few streams; and then orders each slab
// by rank, on as many goroutines as there are processors, each slab's moves
// within the slab.
func place(elems geom.Chunked, keys []geom.SortKey, slabSize int) {
	rank(keys)
	n := len(keys)
	slabOf := func(p int) int { return int(keys[p].K) / slabSize }
	next := make([]int, (n+slabSize-1)/slabSize) // the first position of each slab not yet known to hold one of its elements
	for b := range next {
		next[b] = b * slabSize
	}
	for b := range next {
		for end := min((b+1)*slabSize, n); next[b] < end; {
			p := next[b]
			t := slabOf(p)
			if t == b {
				next[b]++
				continue
			}
			// Slab t has a place the element at p can take: its own elements
			// number its places, and one of them is at p.
			q := next[t]
			for slabOf(q) == t {
				q++
			}
			next[t] = q + 1
			x, y := elems.At(p), elems.At(q)
			*x, *y = *y, *x
			keys[p], keys[q] = keys[q], keys[p]
		}
	}
	var slab atomic.Int32
	forEachWorker(min(runtime.GOMAXPROCS(0), len(next)), func(int) {
		for b := int(slab.Add(1)) - 1; b < len(next); b = int(slab.Add(1)) - 1 {
			lo := b * slabSize
			ks := keys[lo:min(lo+slabSize, n)]
			for q := range ks {
				ks[int(ks[q].K)-lo].I = int32(q)
			}
			permute(elems, lo, ks)
		}
	})
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

// splitSlab finishes one x-slab, elements [lo, hi) of elems: keys is scratch
// of the slab's length, and partitions report positions in elems.
func splitSlab(elems geom.Chunked, lo, hi int, keys []geom.SortKey, s, capacity int,
	world geom.Box, xLo, xHi float64, ks *geom.KeySorter) []Partition {
	var out []Partition
	sortByDim(elems, lo, hi, keys, 1, ks)
	rowSize := (hi - lo + s - 1) / s
	yCuts, yPlanes := cuts(elems, lo, hi, rowSize, 1, world.Lo[1], world.Hi[1])
	for ri := 0; ri+1 < len(yCuts); ri++ {
		rowStart, rowEnd := lo+yCuts[ri], lo+yCuts[ri+1]
		sortByDim(elems, rowStart, rowEnd, keys[rowStart-lo:rowEnd-lo], 2, ks)
		zCuts, zPlanes := cuts(elems, rowStart, rowEnd, capacity, 2, world.Lo[2], world.Hi[2])
		for pi := 0; pi+1 < len(zCuts); pi++ {
			pStart, pEnd := rowStart+zCuts[pi], rowStart+zCuts[pi+1]
			out = append(out, Partition{
				Start:   pStart,
				End:     pEnd,
				PageMBB: elems.MBB(pStart, pEnd),
				Region: geom.Box{
					Lo: geom.Point{xLo, yPlanes[ri], zPlanes[pi]},
					Hi: geom.Point{xHi, yPlanes[ri+1], zPlanes[pi+1]},
				},
			})
		}
	}
	return out
}

// sortByDim orders elements [lo, hi) of elems by center coordinate of the
// given dimension, then ID, then the position they came in. keys is scratch
// of the same length: the sort runs on it, and the elements are then moved
// once each.
func sortByDim(elems geom.Chunked, lo, hi int, keys []geom.SortKey, dim int, ks *geom.KeySorter) {
	elems.Runs(lo, hi, func(at int, run []geom.Element) {
		for k := range run {
			keys[at-lo+k] = geom.SortKey{K: centerKey((run[k].Box.Lo[dim] + run[k].Box.Hi[dim]) / 2), I: int32(at - lo + k)}
		}
	})
	orderKeys(keys, ks, func(i int32) uint64 { return elems.At(lo + int(i)).ID })
	permute(elems, lo, keys)
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

// permute applies the order keys give to elements lo, lo+1, … of elems in
// place, cycle by cycle: position i takes the element from keys[i].I, whose
// place is filled from the next position of the cycle, until the cycle
// returns to i. Positions are counted from lo, and a cycle crosses chunks as
// it finds them. A placed position is marked by pointing its key at itself.
func permute(elems geom.Chunked, lo int, keys []geom.SortKey) {
	for i := range keys {
		if int(keys[i].I) == i {
			continue
		}
		first := *elems.At(lo + i)
		j := i
		for {
			from := int(keys[j].I)
			keys[j].I = int32(j)
			if from == i {
				*elems.At(lo + j) = first
				break
			}
			*elems.At(lo + j) = *elems.At(lo + from)
			j = from
		}
	}
}

// cuts computes the cut positions, counted from lo, for chunks of chunkSize
// elements over elements [lo, hi) of elems, which are sorted, and the
// splitting-plane coordinate at every cut in dimension dim: the midpoint
// between the centers on either side of an interior cut, and the world edges
// for the outermost cuts.
func cuts(elems geom.Chunked, lo, hi, chunkSize, dim int, worldLo, worldHi float64) (positions []int, planes []float64) {
	positions = append(positions, 0)
	planes = append(planes, worldLo)
	for pos := chunkSize; pos < hi-lo; pos += chunkSize {
		a := elems.At(lo + pos - 1).Box.Center()[dim]
		b := elems.At(lo + pos).Box.Center()[dim]
		positions = append(positions, pos)
		planes = append(planes, (a+b)/2)
	}
	positions = append(positions, hi-lo)
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
