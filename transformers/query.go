package transformers

import (
	"fmt"

	"repro/internal/core"
)

// RangeStats reports the cost of one range query (walk steps,
// descriptor tests, pages read, I/O counters, wall time).
type RangeStats = core.RangeStats

// RangeQuery returns every indexed element whose box intersects query
// (touch-inclusive, the same predicate the join uses). The index machinery —
// Hilbert walk start, adaptive walk, neighborhood crawl — reads only the
// space-unit pages whose MBBs can contribute, so a built index answers
// selections as well as joins.
//
// RangeQuery is safe to call from any number of goroutines concurrently, and
// concurrently with joins on the same index: every call uses private walker
// state and a private storage reader view, as every join does.
func (idx *Index) RangeQuery(query Box) ([]Element, RangeStats, error) {
	elems, rs, err := idx.core.RangeQuery(query, nil)
	if err != nil {
		return nil, rs, fmt.Errorf("transformers: range query: %w", err)
	}
	return elems, rs, nil
}
