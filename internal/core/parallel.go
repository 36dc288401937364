package core

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
