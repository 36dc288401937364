package server

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/internal/obs"
)

// joinInput is one side of a join as the catalog describes it when the
// request is planned — fetched once (Catalog.joinInput), and read by the
// planner's in-memory cap and the cache fast path.
type joinInput struct {
	// count is the elements a join reads: the base's plus the append
	// buffer's.
	count int
	// version and epoch key the cache fast path.
	version, epoch uint64
}

// joinPlan is the resolved execution of one join request — everything
// decided before any expensive work runs.
type joinPlan struct {
	algo string
	plan *PlannerInfo
	// a and b are the inputs as planned; their versions and delta epochs are
	// the cache fast path's key components.
	a, b joinInput
	// scores is the full candidate set, priced for explicit requests too,
	// not just "auto".
	scores []planner.Score
}

// planJoin validates the request and resolves it — engine and input
// versions — from one fetch of both inputs' counts and one
// planner.Plan call over the served engines, whether the planner chooses the
// engine ("auto") or only prices the one the request names; any other name is
// an ErrUnknownAlgorithm (CheckAlgorithm). Each engine is priced by the
// kernel walls it measured on the pair at this distance (the wall table,
// s.walls); "auto" excludes inmem over the in-memory cap and once either side
// has taken an append since its last Put (partitionRetired).
func (s *Service) planJoin(a, b string, p JoinParams) (joinPlan, error) {
	if p.Distance < 0 || math.IsNaN(p.Distance) || math.IsInf(p.Distance, 0) {
		return joinPlan{}, fmt.Errorf("server: invalid distance %v", p.Distance)
	}
	jp := joinPlan{algo: p.Algorithm}
	if jp.algo == "" {
		jp.algo = s.cfg.DefaultAlgorithm
	}
	if err := CheckAlgorithm(jp.algo); err != nil {
		return joinPlan{}, err
	}
	auto := jp.algo == AlgorithmAuto
	var err error
	if jp.a, err = s.cat.joinInput(a); err != nil {
		return joinPlan{}, err
	}
	if jp.b, err = s.cat.joinInput(b); err != nil {
		return joinPlan{}, err
	}
	s.joins.Add(1)

	d := planner.Plan(planner.DatasetStats{Count: jp.a.count}, planner.DatasetStats{Count: jp.b.count}, planner.Config{
		Correct: func(e string) float64 { return s.walls.Price(a, b, p.Distance, e) },
	})
	if auto && (jp.a.epoch > 0 || jp.b.epoch > 0) {
		excludeInMem(&d)
	}
	jp.scores = d.Scores
	if auto {
		// Resolved before the cache, so auto requests share cache entries
		// with explicit requests for the same engine.
		s.autoJoins.Add(1)
		jp.algo = d.Engine
		jp.plan = &PlannerInfo{Requested: AlgorithmAuto, Scores: d.Scores}
	}
	return jp, nil
}

// partitionRetired is why "auto" does not route a pair to inmem once either
// side has taken an append since its last Put (a delta epoch above 0, which
// merges carry): a written dataset goes on merging, each merge installs a new
// generation, and inmem would rebuild its pair partition for it on the join
// path, while the merge itself builds transformers' index. On the
// append-replay workload, routing such pairs to inmem as well lowered the
// index hit ratio and raised peak RSS, with no faster joins (ROADMAP item 10).
const partitionRetired = "partition would be retired by the next append"

// excludeInMem takes inmem out of an "auto" decision the way the planner's
// in-memory cap does: its score is +Inf for partitionRetired (a cap's reason
// stands), the scores are re-ranked, and TRANSFORMERS, the only engine left,
// is chosen.
func excludeInMem(d *planner.Decision) {
	for i, sc := range d.Scores {
		if sc.Engine == engine.InMem && !math.IsInf(sc.CostMS, 1) {
			d.Scores[i] = planner.Score{Engine: engine.InMem, CostMS: math.Inf(1), Reason: partitionRetired}
		}
	}
	sort.SliceStable(d.Scores, func(i, j int) bool { return d.Scores[i].CostMS < d.Scores[j].CostMS })
	d.Engine = engine.Transformers
}

// annotatePlan attaches the resolved plan to the "plan" span; nil-safe.
func annotatePlan(span *obs.Span, jp joinPlan) {
	if span == nil {
		return
	}
	span.Add("candidates", int64(len(jp.scores)))
}
