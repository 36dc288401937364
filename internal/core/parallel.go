package core

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/geom"
	"repro/internal/storage"
)

// chunkGuide splits the guide's nodeOrder into at most n contiguous spans of
// approximately equal element counts. Contiguity in Hilbert order keeps each
// worker's consecutive pivots spatially close (short walks, warm caches);
// balancing by element count rather than node count evens the work under
// skew, where a few nodes hold most of the data.
func chunkGuide(idx *Index, n int) [][2]int {
	nodes := len(idx.nodeOrder)
	if n > nodes {
		n = nodes
	}
	if n <= 1 {
		return [][2]int{{0, nodes}}
	}
	chunks := make([][2]int, 0, n)
	remaining := idx.size
	lo, acc := 0, 0
	for i := 0; i < nodes && len(chunks) < n-1; i++ {
		acc += int(idx.nodes[idx.nodeOrder[i]].Count)
		left := n - len(chunks)
		// Cut when the span holds its fair share of the remaining elements
		// (never at the last node, which belongs to the final span), or when
		// the tail has exactly one node left per remaining chunk.
		if (acc*left >= remaining && i < nodes-1) || nodes-(i+1) == left-1 {
			chunks = append(chunks, [2]int{lo, i + 1})
			remaining -= acc
			lo, acc = i+1, 0
		}
	}
	return append(chunks, [2]int{lo, nodes})
}

// joinParallel fans the adaptive exploration out over cfg.Parallelism
// workers. Each worker is a complete, independent sequential join run —
// private sides, walkers, buffers, buffer pools, concurrent store readers —
// whose guide universe is restricted to one contiguous Hilbert-order chunk
// of pivot nodes (see side.restrictTo for why the union of the workers'
// results is exactly the sequential pair set). The only shared mutable state
// is the atomically published cost-model calibration, so no lock sits on the
// page-read or pivot-processing hot paths.
func joinParallel(ia, ib *Index, cfg JoinConfig, emit func(a, b geom.Element)) (JoinStats, error) {
	g, f := 0, 1
	if cfg.GuideB {
		g, f = 1, 0
	}
	guide := [2]*Index{ia, ib}[g]
	chunks := chunkGuide(guide, cfg.Parallelism)
	if len(chunks) <= 1 {
		// Fewer pivot nodes than workers: the sequential join is the same
		// work without goroutine overhead.
		cfg.Parallelism = 1
		return Join(ia, ib, cfg, emit)
	}
	workers := len(chunks)

	readersA := storage.OpenReaders(ia.st, workers)
	readersB := readersA
	sharedStore := ia.st == ib.st
	if !sharedStore {
		readersB = storage.OpenReaders(ib.st, workers)
	}

	calib := newSharedCalib(newCostModel(cfg, ia, ib))

	start := time.Now()
	runs := make([]*joinRun, workers)
	errs := make([]error, workers)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		r := newJoinRun(ia, ib, cfg, emit, readersA[i], readersB[i])
		r.model.shared = calib
		r.stop = &stop
		r.sides[g].restrictTo(chunks[i][0], chunks[i][1])
		runs[i] = r
		wg.Add(1)
		go func(i int, r *joinRun) {
			defer wg.Done()
			if err := r.loop(g, f); err != nil {
				errs[i] = err
				stop.Store(true)
			}
		}(i, r)
	}
	wg.Wait()

	var stats JoinStats
	for i, r := range runs {
		r.release()
		stats = mergeStats(stats, r.stats)
		stats.IO = stats.IO.Add(readersA[i].Stats())
		if !sharedStore {
			stats.IO = stats.IO.Add(readersB[i].Stats())
		}
	}
	// Wall is elapsed time of the parallel region; ExploreWall and JoinWall
	// sum the workers' shares and may exceed Wall (CPU-time semantics).
	stats.Wall = time.Since(start)
	stats.TSUFinal = calib.tsu.Load()
	stats.TSOFinal = calib.tso.Load()
	stats.CfltFinal = calib.cflt.Load()
	for _, err := range errs {
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// mergeStats folds one worker's counters into the aggregate. Wall, IO and
// the cost-model finals are set by the caller.
func mergeStats(a, w JoinStats) JoinStats {
	a.Comparisons += w.Comparisons
	a.MetaComparisons += w.MetaComparisons
	a.WalkSteps += w.WalkSteps
	a.RoleSwitches += w.RoleSwitches
	a.NodeSplits += w.NodeSplits
	a.UnitSplits += w.UnitSplits
	a.Results += w.Results
	a.ExploreWall += w.ExploreWall
	a.JoinWall += w.JoinWall
	return a
}
