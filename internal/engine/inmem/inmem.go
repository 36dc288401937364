// Package inmem implements the cache-resident in-memory spatial join the
// "Parallel In-Memory Evaluation of Spatial Joins" line of work describes:
// both datasets are assigned to cache-sized stripes on one dimension, and
// each stripe is joined with a forward-scan plane sweep on a second
// dimension. Boundary-crossing elements are replicated into every stripe
// they span, and the mini-join decomposition — start×start, start×crossing,
// crossing×start, never crossing×crossing — reports every intersecting pair
// exactly once without a dedup pass:
//
// For an intersecting pair (r, s), both elements are present in stripe
// m = max(firstStripe(r), firstStripe(s)) (their split-dimension overlap
// forces lastStripe ≥ m for both), the element whose interval begins later
// is in its "start" segment there, in every later shared stripe both are
// "crossing" (skipped), and in every earlier stripe one of them is absent.
//
// A partition is a filter over its inputs, not a copy of them: an assignment
// holds the element's box rounded outward to float32 and its position in the
// input. The rounded box contains the exact one, so two exact boxes that
// intersect have rounded boxes that intersect, and the sweep over the float32
// columns — in the stripes and the order the exact coordinates chose, which
// is where the argument above is stated — meets every pair of the answer. A
// pair that passes the sweep is then decided by the float64 test on the two
// source elements, which rejects whatever the rounding let through, so no
// pair is invented either.
//
// Only an element that can meet a partner is partitioned. Before anything is
// sorted or striped, prune drops every element whose grown box covers no cell
// of a coarse grid over the pair's joint MBB that a grown box of the other
// side covers too: A against all of B, then B against the A that was kept.
// Two grown boxes that intersect share a point, and the cell map is monotone
// and clamped, so that point's cell lies in both boxes' cell ranges — the
// prune keeps every element of the answer. On the selective pairing (uniform
// 100K × dense_cluster 100K) it keeps about a quarter of the elements. The
// split and sweep dimensions are chosen over all of them.
//
// The kernel is pure CPU — no paged index, no modeled I/O — and its emit
// loop performs no allocations, so the planner can route RAM-resident
// workloads here and the serving layer's untraced hot path stays
// allocation-free per pair.
package inmem

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
)

// DefaultCacheBytes is the target working-set size per stripe: both
// datasets' segments for one stripe should sit in L2 together.
const DefaultCacheBytes = 256 << 10

// MaxStripes bounds the stripe count so degenerate configurations cannot
// make the per-element stripe walk quadratic.
const MaxStripes = 4096

// assignBytes is what one assignment holds: lo/hi per dimension as float32
// and the element's position in its input.
const assignBytes = (2*geom.Dims + 1) * 4

// stripeElemBytes is the per-element figure the stripe count is sized on: a
// full-precision box and an ID, twice assignBytes. Sizing on assignBytes
// halves the stripes and nearly doubles the candidates the sweep tests (43 →
// 22 stripes, 262 030 → 476 845 comparisons on uniform 100K × dense_cluster
// 100K before the partition was pruned), which costs more than the narrower
// columns save.
const stripeElemBytes = (2*geom.Dims + 1) * 8

// Config tunes partitioning.
type Config struct {
	// CacheBytes is the per-stripe working-set target; DefaultCacheBytes
	// when zero.
	CacheBytes int
	// Stripes pins the stripe count when positive (clamped to MaxStripes);
	// zero sizes stripes from CacheBytes. Duplicate quantile cuts can still
	// reduce the effective count on low-cardinality split dimensions.
	Stripes int
}

// JoinConfig parameterizes one execution over a Partitioned input.
type JoinConfig struct {
	// Parallelism is the stripe worker count: 0 and 1 run inline on the
	// caller's goroutine (emit is then never called concurrently), negative
	// uses all cores, and values above the stripe count are clamped.
	Parallelism int
	// Stop is the cooperative abort flag: workers poll it between sweep
	// steps and finish at most their current scan window after it rises.
	Stop *atomic.Bool
}

// Stats is the kernel's execution record.
type Stats struct {
	// Wall is the join phase's wall time (partitioning is separate).
	Wall time.Duration
	// Comparisons counts element-pair MBB tests: candidates whose rounded
	// intervals overlapped on the sweep dimension and were tested on the
	// remaining dimensions.
	Comparisons uint64
	// Results counts emitted pairs.
	Results uint64
	// Stripes is the effective stripe count after cut deduplication.
	Stripes int
	// SplitDim is the striped dimension; SweepDim the plane-sweep one.
	SplitDim, SweepDim int
	// ReplicatedA/ReplicatedB count the extra assignments of elements whose
	// split-dimension interval crosses stripe boundaries.
	ReplicatedA, ReplicatedB int
}

// Input is one side of a partition: the elements of Base, every box grown by
// Grow on every side (Box.Expand). Base is chunked, as the serving catalog
// holds a dataset. The elements are read by reference, during PartitionInputs
// and by every Join over its result, and never written; the caller must not
// write them either while the Partitioned is in use.
type Input struct {
	Base geom.Chunked
	Grow float64
}

// at returns the element at position i of Base.
func (in *Input) at(i int32) *geom.Element { return in.Base.At(int(i)) }

// side is one input and its assignments: the grown box of the element at
// position ref[k], rounded outward, in lo[d][k]/hi[d][k]. seg holds
// 2*stripes+1 offsets into those columns: [start_t | crossing_t] per stripe.
// kept counts the input's elements the prune kept; the others are in no
// segment.
type side struct {
	in         Input
	lo, hi     [geom.Dims][]float32
	ref        []int32
	seg        []int32
	kept       int
	replicated int
}

// Partitioned is the stripe partition of two inputs, ready to join. It is
// immutable after Partition: concurrent Join calls are safe.
type Partitioned struct {
	a, b    side
	stripes int

	splitDim, sweepDim, thirdDim int
}

// Partition is PartitionInputs over a and b as they are: nothing grown.
func Partition(a, b []geom.Element, cfg Config) *Partitioned {
	return PartitionInputs(Input{Base: geom.ChunkedOf(a)}, Input{Base: geom.ChunkedOf(b)}, cfg)
}

// PartitionInputs assigns the grown boxes of a and b to stripe segments. The
// split dimension (striped) and sweep dimension (sorted) are chosen per
// dataset pair: each maximizes world extent over mean element extent, which
// minimizes boundary crossings and sweep-window width respectively. Stripe
// boundaries are equal-frequency quantiles of the combined split-dimension
// lower bounds, so skewed data still yields balanced stripes. All of that is
// decided on the exact grown coordinates; only what the sweep streams is
// rounded. Before any of it, prune drops every element that can meet no
// partner, and only the kept ones are sorted, cut and striped; the dimensions
// are still chosen over the whole inputs. The inputs are kept by reference
// (see Input) and never written: the sweep order is a permutation of 16-byte
// key records, never of the elements, so a caller may pass storage it shares
// with concurrent readers (the serving catalog builds its resident partitions
// from its own arrays).
func PartitionInputs(a, b Input, cfg Config) *Partitioned {
	return partition(a, b, cfg, resolution(a.Base.Len()+b.Base.Len()))
}

// partition is PartitionInputs with the prune grid at r cells a side.
func partition(a, b Input, cfg Config, r int) *Partitioned {
	cache := cfg.CacheBytes
	if cache <= 0 {
		cache = DefaultCacheBytes
	}
	world := grownWorld(a, b)
	p := &Partitioned{}
	p.splitDim, p.sweepDim = chooseDims(a, b, world)
	p.thirdDim = (geom.Dims*(geom.Dims-1))/2 - p.splitDim - p.sweepDim
	keptA, keptB := prune(a, b, world, r)

	stripes := cfg.Stripes
	if stripes <= 0 {
		stripes = ((len(keptA)+len(keptB))*stripeElemBytes + cache - 1) / cache
	}
	if stripes < 1 {
		stripes = 1
	}
	if stripes > MaxStripes {
		stripes = MaxStripes
	}

	// Global sweep-order permutation; the counting fill below preserves it,
	// so every stripe segment comes out sorted without per-segment sorts.
	// Sorting 16-byte (key, index) records instead of the 56-byte elements
	// themselves roughly halves the partition cost, and leaves the input
	// slices untouched.
	var ks geom.KeySorter
	permA := sweepOrder(a, keptA, p.sweepDim, &ks)
	permB := sweepOrder(b, keptB, p.sweepDim, &ks)

	cuts := quantileCuts(a, keptA, b, keptB, p.splitDim, stripes)
	p.stripes = len(cuts) + 1
	p.a = fillSide(a, keptA, permA, cuts, p.stripes, p.splitDim)
	p.b = fillSide(b, keptB, permB, cuts, p.stripes, p.splitDim)
	return p
}

// sweepOrder returns the kept positions' indexes into kept in ascending order
// of the sweep dimension's grown lower bound, as geom.SortKey records (the
// sort shared with the STR bulk-load). The sweep handles equal lower bounds
// regardless of which side scans, so it does not depend on how ties come out.
func sweepOrder(in Input, kept []int32, sweep int, ks *geom.KeySorter) []geom.SortKey {
	perm := make([]geom.SortKey, len(kept))
	for k, pos := range kept {
		perm[k] = geom.SortKey{K: geom.FloatSortable(in.at(pos).Box.Lo[sweep] - in.Grow), I: int32(k)}
	}
	ks.Sort(perm)
	return perm
}

// grownWorld is the MBB of both inputs' grown boxes. Subtracting and adding
// Grow are monotone, so growing the MBB grows every box inside it.
func grownWorld(a, b Input) geom.Box {
	world := geom.EmptyBox()
	for _, in := range [2]Input{a, b} {
		for _, part := range in.Base.Chunks() {
			world = world.Union(geom.MBBOf(part).Expand(in.Grow))
		}
	}
	return world
}

// chooseDims picks the split and sweep dimensions: the two highest ratios of
// world extent to mean element extent (ties resolve to the lower dimension
// index, keeping the choice deterministic).
func chooseDims(a, b Input, world geom.Box) (split, sweep int) {
	var avg [geom.Dims]float64
	for _, in := range [2]Input{a, b} {
		for _, part := range in.Base.Chunks() {
			for i := range part {
				box := &part[i].Box
				for d := 0; d < geom.Dims; d++ {
					avg[d] += (box.Hi[d] + in.Grow) - (box.Lo[d] - in.Grow)
				}
			}
		}
	}
	n := float64(a.Base.Len() + b.Base.Len())
	var score [geom.Dims]float64
	for d := 0; d < geom.Dims; d++ {
		side := world.Side(d)
		if side <= 0 || n == 0 {
			continue
		}
		// The epsilon keeps point datasets (zero mean extent) finite while
		// preserving the ordering between dimensions. A world wider than
		// float64 makes the ratio Inf/Inf; that dimension keeps its zero.
		if s := side / (avg[d]/n + 1e-12*side); s > 0 {
			score[d] = s
		}
	}
	best := func(exclude int) int {
		bd, bs := -1, -1.0
		for d := 0; d < geom.Dims; d++ {
			if d != exclude && score[d] > bs {
				bd, bs = d, score[d]
			}
		}
		return bd
	}
	// Zero scores (degenerate worlds, empty inputs) still resolve: every
	// score is ≥ 0, so best always picks the lowest eligible dimension.
	split = best(-1)
	sweep = best(split)
	return split, sweep
}

// quantileSample bounds the value set quantileCuts sorts: a systematic
// sample this size locates equal-frequency cuts closely enough for stripe
// balance (a performance concern only — correctness never depends on where
// the cuts fall) without an O(n log n) pass over every lower bound.
const quantileSample = 8192

// quantileCuts returns up to stripes-1 strictly increasing stripe boundaries
// at equal-frequency quantiles of the combined grown split-dimension lower
// bounds of the kept elements (computed over a strided sample on large
// inputs).
func quantileCuts(a Input, keptA []int32, b Input, keptB []int32, split, stripes int) []float64 {
	n := len(keptA) + len(keptB)
	if stripes <= 1 || n == 0 {
		return nil
	}
	stride := (n + quantileSample - 1) / quantileSample
	vals := make([]float64, 0, n/stride+2)
	sample := func(in Input, kept []int32) {
		for k := 0; k < len(kept); k += stride {
			vals = append(vals, in.at(kept[k]).Box.Lo[split]-in.Grow)
		}
	}
	sample(a, keptA)
	sample(b, keptB)
	slices.Sort(vals)
	cuts := make([]float64, 0, stripes-1)
	// prev starts at the minimum: a cut at or below it would only create an
	// empty bottom stripe (stripeOf is inclusive below), so fully degenerate
	// split values collapse to a single stripe.
	prev := vals[0]
	for k := 1; k < stripes; k++ {
		v := vals[k*len(vals)/stripes]
		if v > prev {
			cuts = append(cuts, v)
			prev = v
		}
	}
	return cuts
}

// stripeOf maps a split-dimension coordinate to its stripe: the number of
// cuts at or below it. Stripe t therefore spans [cuts[t-1], cuts[t]) with an
// inclusive lower edge, and an element whose upper bound equals a cut still
// reaches the stripe above it — pairs touching exactly at a boundary share a
// stripe, matching the touch-inclusive intersection predicate.
func stripeOf(cuts []float64, v float64) int {
	return sort.Search(len(cuts), func(i int) bool { return cuts[i] > v })
}

// fillSide builds one input's assignments from its kept positions: a counting
// pass sizes the 2×stripes segments (start, then crossing, per stripe), and a
// fill pass in perm's sweep-sorted order places each element into the start
// segment of its first stripe and the crossing segment of every later stripe
// it spans — by its exact grown bounds. What is stored is their outward
// rounding, which is monotone, so a segment in the order of the exact lower
// bounds is in the order of the stored ones.
func fillSide(in Input, kept []int32, perm []geom.SortKey, cuts []float64, stripes, split int) side {
	nseg := 2 * stripes
	counts := make([]int32, nseg)
	// first and last are indexed like kept, not by sweep rank: counting does
	// not care about order, so this pass reads the elements front to back and
	// only the fill pass pays a cache miss per element.
	first := make([]int32, len(kept))
	last := make([]int32, len(kept))
	for k, pos := range kept {
		box := &in.at(pos).Box
		f := stripeOf(cuts, box.Lo[split]-in.Grow)
		counts[2*f]++
		// stripeOf of the upper bound, walked up from f: the crossing
		// segments are counted one by one anyway.
		l, hi := f, box.Hi[split]+in.Grow
		for l < len(cuts) && cuts[l] <= hi {
			l++
			counts[2*l+1]++
		}
		first[k], last[k] = int32(f), int32(l)
	}
	s := side{in: in, kept: len(kept), seg: make([]int32, nseg+1)}
	var total int32
	for i := 0; i < nseg; i++ {
		s.seg[i] = total
		total += counts[i]
	}
	s.seg[nseg] = total
	s.replicated = int(total) - len(kept)
	s.ref = make([]int32, total)
	for d := 0; d < geom.Dims; d++ {
		s.lo[d] = make([]float32, total)
		s.hi[d] = make([]float32, total)
	}
	cur := make([]int32, nseg)
	copy(cur, s.seg[:nseg])
	for _, sk := range perm {
		ref, f, l := kept[sk.I], first[sk.I], last[sk.I]
		box := in.at(ref).Box.Expand(in.Grow)
		var lo, hi [geom.Dims]float32
		for d := 0; d < geom.Dims; d++ {
			lo[d], hi[d] = geom.RoundDown32(box.Lo[d]), geom.RoundUp32(box.Hi[d])
		}
		k := cur[2*f]
		cur[2*f]++
		for t := f; ; {
			s.ref[k] = ref
			for d := 0; d < geom.Dims; d++ {
				s.lo[d][k], s.hi[d][k] = lo[d], hi[d]
			}
			if t++; t > l {
				break
			}
			k = cur[2*t+1]
			cur[2*t+1]++
		}
	}
	return s
}

// Stripes is the effective stripe count after cut deduplication.
func (p *Partitioned) Stripes() int { return p.stripes }

// Kept is how many input elements, of both sides, the prune kept: each holds
// one assignment, and one more per stripe boundary it crosses.
func (p *Partitioned) Kept() int { return p.a.kept + p.b.kept }

// Bytes is the heap footprint of the partition — the assignments of both
// sides (boundary replicas included) and the segment offsets — which is what
// a cache holding it retains beyond the inputs it points into.
func (p *Partitioned) Bytes() int {
	return (len(p.a.ref)+len(p.b.ref))*assignBytes + (len(p.a.seg)+len(p.b.seg))*4
}

// Join runs the stripe mini-joins and reports each intersecting pair exactly
// once through emit, A-side ID first. With Parallelism 0 or 1 everything
// runs on the caller's goroutine and emit is never called concurrently;
// otherwise stripes are pulled from a shared counter by a worker pool and
// emit must tolerate concurrent calls (the engine adapter's sink serializes
// under exactly the same rule). Safe for concurrent use.
func (p *Partitioned) Join(cfg JoinConfig, emit func(aID, bID uint64)) Stats {
	start := time.Now()
	st := Stats{
		Stripes: p.stripes, SplitDim: p.splitDim, SweepDim: p.sweepDim,
		ReplicatedA: p.a.replicated, ReplicatedB: p.b.replicated,
	}
	workers := cfg.Parallelism
	if workers < 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers <= 1 || p.stripes == 1 {
		st.Comparisons, st.Results = p.joinStripes(0, p.stripes, cfg.Stop, emit)
		st.Wall = time.Since(start)
		return st
	}
	if workers > p.stripes {
		workers = p.stripes
	}
	comp := make([]uint64, workers)
	resl := make([]uint64, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				t := int(next.Add(1)) - 1
				if t >= p.stripes || (cfg.Stop != nil && cfg.Stop.Load()) {
					return
				}
				c, r := p.joinStripes(t, t+1, cfg.Stop, emit)
				comp[w] += c
				resl[w] += r
			}
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		st.Comparisons += comp[w]
		st.Results += resl[w]
	}
	st.Wall = time.Since(start)
	return st
}

// joinStripes runs the three mini-joins of each stripe in [from, to):
// Astart×Bstart, Astart×Bcrossing, Acrossing×Bstart. Crossing×crossing pairs
// were already reported in the stripe where the later of the two intervals
// began, so that mini-join is skipped — the decomposition's dedup-free
// exactly-once guarantee.
func (p *Partitioned) joinStripes(from, to int, stop *atomic.Bool, emit func(aID, bID uint64)) (comparisons, results uint64) {
	for t := from; t < to; t++ {
		if stop != nil && stop.Load() {
			return
		}
		as0, as1, ac1 := p.a.seg[2*t], p.a.seg[2*t+1], p.a.seg[2*t+2]
		bs0, bs1, bc1 := p.b.seg[2*t], p.b.seg[2*t+1], p.b.seg[2*t+2]
		c, r := p.sweep(as0, as1, bs0, bs1, stop, emit)
		comparisons, results = comparisons+c, results+r
		c, r = p.sweep(as0, as1, bs1, bc1, stop, emit)
		comparisons, results = comparisons+c, results+r
		c, r = p.sweep(as1, ac1, bs0, bs1, stop, emit)
		comparisons, results = comparisons+c, results+r
	}
	return comparisons, results
}

// sweep forward-scans two sweep-sorted segments, emitting every
// touch-inclusive intersecting pair exactly once. The active assignment (the
// one whose sweep interval begins first; ties go to A) scans the other
// segment while lower bounds stay within its interval, testing the two
// non-sweep dimensions over the flat float32 columns — the branch-light
// filter loop this package exists for. What passes it goes to exact.
func (p *Partitioned) sweep(a0, a1, b0, b1 int32, stop *atomic.Bool, emit func(aID, bID uint64)) (comparisons, results uint64) {
	if a0 == a1 || b0 == b1 {
		return
	}
	d1, d2 := p.splitDim, p.thirdDim
	alo, ahi := p.a.lo[p.sweepDim], p.a.hi[p.sweepDim]
	blo, bhi := p.b.lo[p.sweepDim], p.b.hi[p.sweepDim]
	alo1, ahi1 := p.a.lo[d1], p.a.hi[d1]
	blo1, bhi1 := p.b.lo[d1], p.b.hi[d1]
	alo2, ahi2 := p.a.lo[d2], p.a.hi[d2]
	blo2, bhi2 := p.b.lo[d2], p.b.hi[d2]
	aref, bref := p.a.ref, p.b.ref
	i, j := a0, b0
	for i < a1 && j < b1 {
		if stop != nil && stop.Load() {
			return
		}
		if alo[i] <= blo[j] {
			hi := ahi[i]
			l1, h1, l2, h2 := alo1[i], ahi1[i], alo2[i], ahi2[i]
			for k := j; k < b1 && blo[k] <= hi; k++ {
				comparisons++
				if l1 <= bhi1[k] && blo1[k] <= h1 && l2 <= bhi2[k] && blo2[k] <= h2 {
					results += p.exact(aref[i], bref[k], emit)
				}
			}
			i++
		} else {
			hi := bhi[j]
			l1, h1, l2, h2 := blo1[j], bhi1[j], blo2[j], bhi2[j]
			for k := i; k < a1 && alo[k] <= hi; k++ {
				comparisons++
				if alo1[k] <= h1 && l1 <= ahi1[k] && alo2[k] <= h2 && l2 <= ahi2[k] {
					results += p.exact(aref[k], bref[j], emit)
				}
			}
			j++
		}
	}
	return comparisons, results
}

// exact decides a pair the filter let through on the two source elements, in
// Box.Expand's and Box.Intersects' own arithmetic — the answer a grown
// float64 copy of both inputs would give, bit for bit — and emits it if it
// holds, returning how many pairs it emitted.
func (p *Partitioned) exact(ra, rb int32, emit func(aID, bID uint64)) uint64 {
	a, b := p.a.in.at(ra), p.b.in.at(rb)
	ga, gb := p.a.in.Grow, p.b.in.Grow
	for d := 0; d < geom.Dims; d++ {
		if a.Box.Lo[d]-ga > b.Box.Hi[d]+gb || b.Box.Lo[d]-gb > a.Box.Hi[d]+ga {
			return 0
		}
	}
	emit(a.ID, b.ID)
	return 1
}
