// Package inmem implements the cache-resident in-memory spatial join the
// "Parallel In-Memory Evaluation of Spatial Joins" line of work describes:
// both datasets are copied into struct-of-arrays flat MBR buffers
// (geom.SoA), partitioned on one dimension into cache-sized stripes, and
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
// datasets' SoA segments for one stripe should sit in L2 together.
const DefaultCacheBytes = 256 << 10

// MaxStripes bounds the stripe count so degenerate configurations cannot
// make the per-element stripe walk quadratic.
const MaxStripes = 4096

// soaElemBytes is the SoA footprint of one element assignment: lo/hi per
// dimension plus the ID, all 8 bytes wide.
const soaElemBytes = (2*geom.Dims + 1) * 8

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
	// Comparisons counts element-pair MBB tests: candidates that overlapped
	// on the sweep dimension and were tested on the remaining dimensions.
	Comparisons uint64
	// Results counts emitted pairs.
	Results uint64
	// Stripes is the effective stripe count after cut deduplication.
	Stripes int
	// SplitDim is the striped dimension; SweepDim the plane-sweep one.
	SplitDim, SweepDim int
	// ReplicatedA/ReplicatedB count extra SoA copies of elements whose
	// split-dimension interval crosses stripe boundaries.
	ReplicatedA, ReplicatedB int
}

// Partitioned is the stripe-partitioned SoA form of two datasets, ready to
// join. It is immutable after Partition: concurrent Join calls are safe.
type Partitioned struct {
	a, b       *geom.SoA
	segA, segB []int32 // 2*stripes+1 offsets: [start_t | crossing_t] per stripe
	stripes    int

	splitDim, sweepDim, thirdDim int
	replicatedA, replicatedB     int
}

// Partition copies a and b into stripe-segmented SoA buffers. The split
// dimension (striped) and sweep dimension (sorted) are chosen per dataset
// pair: each maximizes world extent over mean element extent, which
// minimizes boundary crossings and sweep-window width respectively. Stripe
// boundaries are equal-frequency quantiles of the combined split-dimension
// lower bounds, so skewed data still yields balanced stripes. Neither input
// slice is written to: the sweep order is a permutation of 16-byte key
// records, never of the elements, so a caller may pass storage it shares
// with concurrent readers (the serving catalog builds its resident
// partitions from its own base slices).
func Partition(a, b []geom.Element, cfg Config) *Partitioned {
	cache := cfg.CacheBytes
	if cache <= 0 {
		cache = DefaultCacheBytes
	}
	p := &Partitioned{}
	p.splitDim, p.sweepDim = chooseDims(a, b)
	p.thirdDim = (geom.Dims*(geom.Dims-1))/2 - p.splitDim - p.sweepDim

	stripes := cfg.Stripes
	if stripes <= 0 {
		stripes = ((len(a)+len(b))*soaElemBytes + cache - 1) / cache
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
	permA := sweepOrder(a, p.sweepDim, &ks)
	permB := sweepOrder(b, p.sweepDim, &ks)

	cuts := quantileCuts(a, b, p.splitDim, stripes)
	p.stripes = len(cuts) + 1
	p.a, p.segA, p.replicatedA = fillSoA(a, permA, cuts, p.stripes, p.splitDim)
	p.b, p.segB, p.replicatedB = fillSoA(b, permB, cuts, p.stripes, p.splitDim)
	return p
}

// sweepOrder returns elems's indexes in ascending order of the sweep
// dimension's lower bound, as geom.SortKey records (the sort shared with the
// STR bulk-load). The sweep handles equal lower bounds regardless of which
// side scans, so it does not depend on how ties come out.
func sweepOrder(elems []geom.Element, sweep int, ks *geom.KeySorter) []geom.SortKey {
	perm := make([]geom.SortKey, len(elems))
	for i := range elems {
		perm[i] = geom.SortKey{K: geom.FloatSortable(elems[i].Box.Lo[sweep]), I: int32(i)}
	}
	ks.Sort(perm)
	return perm
}

// chooseDims picks the split and sweep dimensions: the two highest ratios of
// world extent to mean element extent (ties resolve to the lower dimension
// index, keeping the choice deterministic).
func chooseDims(a, b []geom.Element) (split, sweep int) {
	world := geom.MBBOf(a).Union(geom.MBBOf(b))
	var avg [geom.Dims]float64
	for _, e := range a {
		for d := 0; d < geom.Dims; d++ {
			avg[d] += e.Box.Side(d)
		}
	}
	for _, e := range b {
		for d := 0; d < geom.Dims; d++ {
			avg[d] += e.Box.Side(d)
		}
	}
	n := float64(len(a) + len(b))
	var score [geom.Dims]float64
	for d := 0; d < geom.Dims; d++ {
		side := world.Side(d)
		if side <= 0 || n == 0 {
			continue
		}
		// The epsilon keeps point datasets (zero mean extent) finite while
		// preserving the ordering between dimensions.
		score[d] = side / (avg[d]/n + 1e-12*side)
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
// at equal-frequency quantiles of the combined split-dimension lower bounds
// (computed over a strided sample on large inputs).
func quantileCuts(a, b []geom.Element, split, stripes int) []float64 {
	if stripes <= 1 || len(a)+len(b) == 0 {
		return nil
	}
	stride := (len(a) + len(b) + quantileSample - 1) / quantileSample
	if stride < 1 {
		stride = 1
	}
	vals := make([]float64, 0, (len(a)+len(b))/stride+2)
	for i := 0; i < len(a); i += stride {
		vals = append(vals, a[i].Box.Lo[split])
	}
	for i := 0; i < len(b); i += stride {
		vals = append(vals, b[i].Box.Lo[split])
	}
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

// fillSoA builds one dataset's segmented SoA arena: a counting pass sizes
// the 2×stripes segments (start, then crossing, per stripe), and a fill pass
// in perm's sweep-sorted order places each element into the start segment of
// its first stripe and the crossing segment of every later stripe it spans.
// seg has 2*stripes+1 offsets; replicated is the copy count beyond
// len(elems).
func fillSoA(elems []geom.Element, perm []geom.SortKey, cuts []float64, stripes, split int) (arena *geom.SoA, seg []int32, replicated int) {
	nseg := 2 * stripes
	counts := make([]int32, nseg)
	first := make([]int32, len(elems))
	last := make([]int32, len(elems))
	for pi := range perm {
		e := &elems[perm[pi].I]
		f := stripeOf(cuts, e.Box.Lo[split])
		l := stripeOf(cuts, e.Box.Hi[split])
		first[pi], last[pi] = int32(f), int32(l)
		counts[2*f]++
		for t := f + 1; t <= l; t++ {
			counts[2*t+1]++
		}
	}
	seg = make([]int32, nseg+1)
	var total int32
	for s := 0; s < nseg; s++ {
		seg[s] = total
		total += counts[s]
	}
	seg[nseg] = total
	arena = geom.NewSoA(int(total))
	cur := make([]int32, nseg)
	copy(cur, seg[:nseg])
	for pi := range perm {
		e := elems[perm[pi].I]
		arena.Set(int(cur[2*first[pi]]), e)
		cur[2*first[pi]]++
		for t := first[pi] + 1; t <= last[pi]; t++ {
			arena.Set(int(cur[2*t+1]), e)
			cur[2*t+1]++
		}
	}
	return arena, seg, int(total) - len(elems)
}

// Stripes is the effective stripe count after cut deduplication.
func (p *Partitioned) Stripes() int { return p.stripes }

// Bytes is the heap footprint of the partition — the two SoA arenas
// (boundary replicas included) and the segment offsets — which is what a
// cache holding it retains.
func (p *Partitioned) Bytes() int {
	return (p.a.Len()+p.b.Len())*soaElemBytes + (len(p.segA)+len(p.segB))*4
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
		ReplicatedA: p.replicatedA, ReplicatedB: p.replicatedB,
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
		as0, as1, ac1 := p.segA[2*t], p.segA[2*t+1], p.segA[2*t+2]
		bs0, bs1, bc1 := p.segB[2*t], p.segB[2*t+1], p.segB[2*t+2]
		c, r := p.sweep(as0, as1, bs0, bs1, stop, emit)
		comparisons, results = comparisons+c, results+r
		c, r = p.sweep(as0, as1, bs1, bc1, stop, emit)
		comparisons, results = comparisons+c, results+r
		c, r = p.sweep(as1, ac1, bs0, bs1, stop, emit)
		comparisons, results = comparisons+c, results+r
	}
	return comparisons, results
}

// sweep forward-scans two sweep-sorted SoA segments, emitting every
// touch-inclusive intersecting pair exactly once. The active element (the
// one whose sweep interval begins first; ties go to A) scans the other
// segment while lower bounds stay within its interval, testing the two
// non-sweep dimensions over the flat bound arrays — the branch-light SoA
// filter loop this package exists for.
func (p *Partitioned) sweep(a0, a1, b0, b1 int32, stop *atomic.Bool, emit func(aID, bID uint64)) (comparisons, results uint64) {
	if a0 == a1 || b0 == b1 {
		return
	}
	d1, d2 := p.splitDim, p.thirdDim
	alo, ahi := p.a.Lo[p.sweepDim], p.a.Hi[p.sweepDim]
	blo, bhi := p.b.Lo[p.sweepDim], p.b.Hi[p.sweepDim]
	alo1, ahi1 := p.a.Lo[d1], p.a.Hi[d1]
	blo1, bhi1 := p.b.Lo[d1], p.b.Hi[d1]
	alo2, ahi2 := p.a.Lo[d2], p.a.Hi[d2]
	blo2, bhi2 := p.b.Lo[d2], p.b.Hi[d2]
	aid, bid := p.a.ID, p.b.ID
	i, j := a0, b0
	for i < a1 && j < b1 {
		if stop != nil && stop.Load() {
			return
		}
		if alo[i] <= blo[j] {
			hi := ahi[i]
			l1, h1, l2, h2 := alo1[i], ahi1[i], alo2[i], ahi2[i]
			id := aid[i]
			for k := j; k < b1 && blo[k] <= hi; k++ {
				comparisons++
				if l1 <= bhi1[k] && blo1[k] <= h1 && l2 <= bhi2[k] && blo2[k] <= h2 {
					results++
					emit(id, bid[k])
				}
			}
			i++
		} else {
			hi := bhi[j]
			l1, h1, l2, h2 := blo1[j], bhi1[j], blo2[j], bhi2[j]
			id := bid[j]
			for k := i; k < a1 && alo[k] <= hi; k++ {
				comparisons++
				if alo1[k] <= h1 && l1 <= ahi1[k] && alo2[k] <= h2 && l2 <= ahi2[k] {
					results++
					emit(aid[k], id)
				}
			}
			j++
		}
	}
	return comparisons, results
}
