// Package pbsm implements the Partition Based Spatial-Merge join of Patel
// and DeWitt (SIGMOD '96), the space-oriented-partitioning baseline of the
// paper (§VIII-B, §VII-A).
//
// PBSM decomposes the universe into a uniform grid of tiles, maps tiles to
// partitions round-robin (which balances skew across partitions), and
// assigns a copy of every element to each partition whose tiles it overlaps
// (multiple assignment). The join then reads each partition of both datasets
// and joins it in memory with the grid hash join, deduplicating replicated
// result pairs with the reference-tile test.
//
// Two behaviours of the original that the paper's evaluation hinges on are
// reproduced faithfully:
//
//   - Partition pages are flushed one buffer-page at a time in arrival
//     order, so the pages of one partition end up scattered over the disk —
//     which is why the join phase performs almost exclusively random reads
//     (§VII-C1).
//   - Replication inflates the data read and the comparisons performed when
//     elements are large relative to tiles (§VII-C3).
package pbsm

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/storage"
)

// Tiling fixes the uniform tile grid and the tile→partition mapping shared
// by the two joined datasets. Both indexes of a join must be built with the
// same Tiling.
type Tiling struct {
	world       geom.Box
	tilesPerDim int
	partitions  int
}

// NewTiling creates a tiling of the world box with tilesPerDim^3 tiles
// mapped onto the given number of partitions (tiles map round-robin). When
// partitions <= 0 every tile is its own partition. The paper's evaluation
// uses 10^3 partitions for synthetic data and 20^3 for neuroscience data.
func NewTiling(world geom.Box, tilesPerDim, partitions int) (*Tiling, error) {
	if tilesPerDim < 1 {
		return nil, fmt.Errorf("pbsm: tilesPerDim %d < 1", tilesPerDim)
	}
	if !world.Valid() || world.Volume() <= 0 {
		return nil, fmt.Errorf("pbsm: invalid world %v", world)
	}
	numTiles := tilesPerDim * tilesPerDim * tilesPerDim
	if partitions <= 0 || partitions > numTiles {
		partitions = numTiles
	}
	return &Tiling{world: world, tilesPerDim: tilesPerDim, partitions: partitions}, nil
}

// Partitions returns the number of partitions.
func (t *Tiling) Partitions() int { return t.partitions }

// World returns the tiled universe.
func (t *Tiling) World() geom.Box { return t.world }

// tileIndex converts per-dimension tile coordinates to a linear tile id.
func (t *Tiling) tileIndex(x, y, z int) int {
	return (x*t.tilesPerDim+y)*t.tilesPerDim + z
}

// partitionOfTile maps a tile to its partition (round-robin).
func (t *Tiling) partitionOfTile(tile int) int { return tile % t.partitions }

// tileRange returns the inclusive tile coordinate range overlapped by the
// box in dimension d, clamped into the grid (boxes touching or protruding
// past the universe boundary map to the boundary tiles).
func (t *Tiling) tileRange(b geom.Box, d int) (int, int) {
	side := t.world.Side(d) / float64(t.tilesPerDim)
	lo := int(math.Floor((b.Lo[d] - t.world.Lo[d]) / side))
	hi := int(math.Floor((b.Hi[d] - t.world.Lo[d]) / side))
	return clampIdx(lo, t.tilesPerDim), clampIdx(hi, t.tilesPerDim)
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i >= n {
		return n - 1
	}
	return i
}

// partitionsOf calls fn once for every distinct partition the box's tiles
// map to. scratch must be a []bool of length >= partitions, zeroed; it is
// re-zeroed before return.
func (t *Tiling) partitionsOf(b geom.Box, scratch []bool, fn func(p int)) {
	x0, x1 := t.tileRange(b, 0)
	y0, y1 := t.tileRange(b, 1)
	z0, z1 := t.tileRange(b, 2)
	var touched []int
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			for z := z0; z <= z1; z++ {
				p := t.partitionOfTile(t.tileIndex(x, y, z))
				if !scratch[p] {
					scratch[p] = true
					touched = append(touched, p)
					fn(p)
				}
			}
		}
	}
	for _, p := range touched {
		scratch[p] = false
	}
}

// tileOfPoint returns the tile containing p (clamped into the universe).
func (t *Tiling) tileOfPoint(p geom.Point) int {
	var c [3]int
	for d := 0; d < geom.Dims; d++ {
		side := t.world.Side(d) / float64(t.tilesPerDim)
		c[d] = clampIdx(int(math.Floor((p[d]-t.world.Lo[d])/side)), t.tilesPerDim)
	}
	return t.tileIndex(c[0], c[1], c[2])
}

// Index is one dataset partitioned for PBSM.
type Index struct {
	tiling *Tiling
	st     storage.Store
	// pages[p] lists the (scattered) disk pages of partition p in flush
	// order.
	pages [][]storage.PageID
	// counts[p] is the number of element copies in partition p.
	counts []int
	size   int
}

// BuildStats reports indexing cost.
type BuildStats struct {
	// Wall is the elapsed indexing time.
	Wall time.Duration
	// IO is the storage traffic of the build.
	IO storage.Stats
	// Copies is the total number of element copies written (>= N due to
	// multiple assignment).
	Copies int
	// Replication is Copies / N.
	Replication float64
}

// BuildIndex partitions elems under the tiling and writes the partitions to
// the store page by page.
func BuildIndex(st storage.Store, elems []geom.Element, tiling *Tiling) (*Index, BuildStats, error) {
	start := time.Now()
	before := st.Stats()
	idx := &Index{
		tiling: tiling,
		st:     st,
		pages:  make([][]storage.PageID, tiling.partitions),
		counts: make([]int, tiling.partitions),
		size:   len(elems),
	}
	perPage := storage.ElementsPerPage(st.PageSize())
	buffers := make([][]geom.Element, tiling.partitions)
	scratch := make([]bool, tiling.partitions)
	copies := 0

	flush := func(p int) error {
		// The store keeps what it is given and the buffer is refilled: it
		// gets a copy.
		id, err := st.Append(slices.Clone(buffers[p]))
		if err != nil {
			return err
		}
		idx.pages[p] = append(idx.pages[p], id)
		buffers[p] = buffers[p][:0]
		return nil
	}

	for _, e := range elems {
		var ferr error
		idx.tiling.partitionsOf(e.Box, scratch, func(p int) {
			if ferr != nil {
				return
			}
			buffers[p] = append(buffers[p], e)
			idx.counts[p]++
			copies++
			if len(buffers[p]) >= perPage {
				ferr = flush(p)
			}
		})
		if ferr != nil {
			return nil, BuildStats{}, ferr
		}
	}
	for p := range buffers {
		if len(buffers[p]) > 0 {
			if err := flush(p); err != nil {
				return nil, BuildStats{}, err
			}
		}
	}
	bs := BuildStats{
		Wall:   time.Since(start),
		IO:     st.Stats().Sub(before),
		Copies: copies,
	}
	if len(elems) > 0 {
		bs.Replication = float64(copies) / float64(len(elems))
	}
	return idx, bs, nil
}

// Len returns the number of distinct input elements.
func (idx *Index) Len() int { return idx.size }

// Tiling returns the tiling the index was built with.
func (idx *Index) Tiling() *Tiling { return idx.tiling }

// readPartition loads every element copy of partition p into one new slice,
// which the caller may reorder.
func (idx *Index) readPartition(p int) ([]geom.Element, error) {
	out := make([]geom.Element, 0, idx.counts[p])
	for _, id := range idx.pages[p] {
		page, err := idx.st.View(id)
		if err != nil {
			return nil, err
		}
		out = append(out, page...)
	}
	return out, nil
}

// JoinStats reports join cost.
type JoinStats struct {
	// Comparisons counts element-element MBB tests by the in-memory join.
	Comparisons uint64
	// IO is the join-phase storage traffic.
	IO storage.Stats
	// Wall is the elapsed in-memory join time.
	Wall time.Duration
	// Results counts emitted pairs; DedupDropped counts replicated pairs
	// suppressed by the reference-tile test.
	Results      uint64
	DedupDropped uint64
}

// JoinConfig controls the partition-merge join.
type JoinConfig struct {
	// Stop, when non-nil, is a cooperative abort flag: once raised, the
	// in-memory join of the current partition stops at its next probe
	// element, no further partition is joined, and Join returns normally
	// with partial stats (streaming callers abort through it). The
	// per-probe granularity matters on skew: one partition can hold nearly
	// the whole quadratic workload.
	Stop *atomic.Bool
}

// stopped reads the cooperative abort flag.
func (cfg JoinConfig) stopped() bool { return cfg.Stop != nil && cfg.Stop.Load() }

// Join joins two PBSM indexes built over the same tiling, emitting each
// intersecting pair exactly once (a from ia's dataset, b from ib's).
func Join(ia, ib *Index, cfg JoinConfig, emit func(a, b geom.Element)) (JoinStats, error) {
	if ia.tiling != ib.tiling {
		return JoinStats{}, fmt.Errorf("pbsm: indexes built with different tilings")
	}
	var stats JoinStats
	start := time.Now()
	beforeA := ia.st.Stats()
	shared := ia.st == ib.st
	var beforeB storage.Stats
	if !shared {
		beforeB = ib.st.Stats()
	}
	tl := ia.tiling
	for p := 0; p < tl.partitions; p++ {
		if cfg.stopped() {
			break
		}
		if ia.counts[p] == 0 || ib.counts[p] == 0 {
			continue
		}
		ea, err := ia.readPartition(p)
		if err != nil {
			return stats, err
		}
		eb, err := ib.readPartition(p)
		if err != nil {
			return stats, err
		}
		// The in-memory join, probe loop inlined (vs grid.Join) so the abort
		// flag is honored between probe elements, not just between
		// partitions — under skew one partition is nearly the whole join.
		g := grid.Build(ea)
		for _, q := range eb {
			if cfg.stopped() {
				break
			}
			g.Probe(q, func(a geom.Element) {
				// Reference-tile deduplication: report the pair only in the
				// partition owning the tile of the intersection's low
				// corner; both copies are guaranteed to be present there.
				inter, _ := a.Box.Intersection(q.Box)
				if tl.partitionOfTile(tl.tileOfPoint(inter.Lo)) == p {
					stats.Results++
					emit(a, q)
				} else {
					stats.DedupDropped++
				}
			})
		}
		stats.Comparisons += g.Comparisons
	}
	stats.Wall = time.Since(start)
	stats.IO = ia.st.Stats().Sub(beforeA)
	if !shared {
		stats.IO = stats.IO.Add(ib.st.Stats().Sub(beforeB))
	}
	return stats, nil
}
