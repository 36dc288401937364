package server

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/internal/obs"
)

// joinInput is one side of a join as the catalog describes it when the
// request is planned — fetched once (Catalog.joinInput), and read by the
// planner, the cache fast path and the planner accuracy sample alike.
type joinInput struct {
	name string
	// stats is the statistics cached at registration, one per version.
	stats planner.DatasetStats
	// version and epoch key the cache fast path; delta is the append buffer's
	// size, folded into the count the in-memory cap reads.
	version, epoch uint64
	delta          int
}

// planned is the input's statistics with the delta's cardinality folded
// in: what the planner's in-memory cap reads and what a planner sample
// records. Only Count grows: the distribution signals are assumed
// delta-alike — the delta is bounded by the merge threshold — and
// recomputing them per request would put an O(delta) scan on every plan.
func (in joinInput) planned() planner.DatasetStats {
	st := in.stats
	st.Count += in.delta
	return st
}

// features is the input as a planner accuracy sample records it.
func (in joinInput) features() obs.DatasetFeatures {
	st := in.planned()
	return obs.DatasetFeatures{
		Name:            in.name,
		Version:         int64(in.version),
		Count:           st.Count,
		SkewCV:          st.SkewCV,
		ClusterFraction: st.ClusterFraction,
	}
}

// joinPlan is the resolved execution of one join request — everything
// decided before any expensive work runs.
type joinPlan struct {
	algo        string
	plan        *PlannerInfo
	parallelism int
	// a and b are the inputs as planned; their versions and delta epochs are
	// the cache fast path's key components.
	a, b joinInput
	// cost is the admission price in pool slot units, derived from the
	// resolved engine's price.
	cost int
	// predictedMS is the resolved engine's price (-1 while it is unmeasured
	// or excluded) and scores the full candidate set — the planner accuracy
	// recorder's inputs, captured for explicit requests too, not just
	// "auto".
	predictedMS float64
	scores      []planner.Score
	// excluded names the candidates the planner refused to price finitely
	// (engine → reason).
	excluded map[string]string
}

// planJoin validates the request and resolves it — engine, input versions,
// admission price — from one fetch of both inputs' statistics and one
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
	s.joins.Add(1)

	jp := joinPlan{algo: p.Algorithm, parallelism: p.Parallelism}
	if jp.algo == "" {
		jp.algo = s.cfg.DefaultAlgorithm
	}
	if jp.parallelism == 0 {
		jp.parallelism = s.cfg.Parallelism
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

	d := planner.Plan(jp.a.planned(), jp.b.planned(), planner.Config{
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
	s.priceJoin(&jp)
	return jp, nil
}

// partitionRetired is why "auto" does not route a pair to inmem once either
// side has taken an append since its last Put (a delta epoch above 0, which
// merges carry): the pair partition is keyed on the delta epochs, so the next
// append retires it and the join after re-partitions the whole pair. The
// transformers path joins a delta against the resident index instead.
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

// priceJoin converts the resolved engine's price into the request's
// admission price in slot units: 1 + CostMS/DefaultCostUnitMS, so an
// expensive join occupies many slots (the pool clamps to its capacity — such
// a join runs alone) while typical joins, and every join of an engine not yet
// measured on the pair, stay at unit price.
func (s *Service) priceJoin(jp *joinPlan) {
	jp.cost = 1
	jp.predictedMS = -1
	for _, sc := range jp.scores {
		switch {
		case math.IsInf(sc.CostMS, 1):
			// Recorded with its reason, not silently dropped: the accuracy
			// sample must show why an engine is absent from the score map.
			if jp.excluded == nil {
				jp.excluded = make(map[string]string)
			}
			jp.excluded[sc.Engine] = sc.Reason
		case sc.Engine == jp.algo && sc.CostMS > 0:
			jp.predictedMS = sc.CostMS
			jp.cost = 1 + int(sc.CostMS/DefaultCostUnitMS)
		}
	}
}

// annotatePlan attaches the resolved plan to the "plan" span; nil-safe.
func annotatePlan(span *obs.Span, jp joinPlan) {
	if span == nil {
		return
	}
	span.Add("candidates", int64(len(jp.scores)))
	span.Add("cost_units", int64(jp.cost))
}

// recordPlannerSample feeds one served join into the planner accuracy
// recorder, whose observer feeds an executed join's kernel wall to the wall
// table. Cache hits replay the cached summary's measurements and are flagged
// so neither aggregation nor the table takes them; an inmem join that found
// its partition resident is flagged too. The measured cost is the kernel wall
// (delta sub-joins included; modeled I/O and the partition build left out),
// the currency the planner prices in, so predicted and measured compare like
// for like.
func (s *Service) recordPlannerSample(ctx context.Context, p JoinParams, jp joinPlan, summary JoinSummary, wall time.Duration, cacheHit, partitionHit bool) {
	sample := obs.PlannerSample{
		Time:         time.Now(),
		RequestID:    obs.FromContext(ctx).ID(),
		Predicate:    predicateOf(p.Distance),
		Distance:     p.Distance,
		Engine:       jp.algo,
		Auto:         jp.plan != nil,
		PredictedMS:  jp.predictedMS,
		MeasuredMS:   summary.JoinWallMS,
		WallMS:       float64(wall) / float64(time.Millisecond),
		CacheHit:     cacheHit,
		PartitionHit: partitionHit,
		A:            jp.a.features(),
		B:            jp.b.features(),
		Excluded:     jp.excluded,
	}
	if len(jp.scores) > 0 {
		sample.Scores = make(map[string]float64, len(jp.scores))
		for _, sc := range jp.scores {
			if sc.CostMS > 0 && !math.IsInf(sc.CostMS, 1) {
				sample.Scores[sc.Engine] = sc.CostMS
			}
		}
	}
	s.obs.recorder.Record(sample)
}
