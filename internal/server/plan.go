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
	// size, folded into the statistics the planner prices.
	version, epoch uint64
	delta          int
}

// planned adjusts the input's statistics for the join that will actually
// run: the delta's cardinality is folded in, and a distance join expands
// every box by distance/2 per side before intersecting, so the planner must
// price the expanded workload, not the base one. Identity at distance 0 over
// an empty delta.
func (in joinInput) planned(distance float64) planner.DatasetStats {
	return planner.ExpandStats(deltaAdjusted(in.stats, in.delta), distance)
}

// features is the input as a planner accuracy sample records it: the
// delta-adjusted statistics the planner priced, before any distance expansion
// (the sample records the distance beside them).
func (in joinInput) features() obs.DatasetFeatures {
	st := deltaAdjusted(in.stats, in.delta)
	return obs.DatasetFeatures{
		Name:            in.name,
		Version:         int64(in.version),
		Count:           st.Count,
		SkewCV:          st.SkewCV,
		ClusterFraction: st.ClusterFraction,
	}
}

// deltaAdjusted folds a dataset's append-delta cardinality into its cached
// planner statistics. Only Count grows: the distribution signals (skew,
// clustering, density) are assumed delta-alike — the delta is bounded by the
// merge threshold, so even an adversarial delta cannot skew them for long —
// and recomputing them per request would put an O(delta) scan on every plan.
func deltaAdjusted(st planner.DatasetStats, delta int) planner.DatasetStats {
	st.Count += delta
	return st
}

// plannerConfig assembles one join's planner configuration: the serving
// economics (prebuilt TRANSFORMERS) plus the pair's learned drift
// corrections.
func (s *Service) plannerConfig(a, b string) planner.Config {
	return planner.Config{
		PrebuiltTransformers: true,
		Correct:              s.corrector.Bind(a, b),
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
	// planner's predicted cost of the resolved engine.
	cost int
	// predictedMS is the planner's cost estimate of the resolved engine
	// (-1 when the planner gave it no finite score) and scores the full
	// candidate set — the planner accuracy recorder's inputs, captured for
	// explicit requests too, not just "auto".
	predictedMS float64
	scores      []planner.Score
	// excluded names the candidates the planner refused to price finitely
	// (engine → reason); terms is the chosen engine's cost-term decomposition
	// and correction the drift factor applied to its score — the planner
	// sample fields that say why the prediction was what it was.
	excluded   map[string]string
	terms      map[string]float64
	correction float64
}

// planJoin validates the request and resolves it — engine, input versions,
// admission price — from one fetch of both inputs' statistics and one
// planner.Plan call over the served engines, whether the planner chooses the
// engine ("auto") or only prices the one the request names; any other name is
// an ErrUnknownAlgorithm (CheckAlgorithm). The planner prices the
// TRANSFORMERS engine without a build phase (its indexes live in the
// catalog). The inmem engine's partition is catalog-resident too, but whether
// a given join finds it there depends on the writes and joins before it, so
// the planner keeps pricing the build and the per-pair drift corrector learns
// how often it is actually paid — except once either side has taken an
// append since its last Put, when "auto" excludes inmem (partitionRetired).
// A distance join is priced over distance-expanded statistics, the workload
// that actually runs.
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

	d := planner.Plan(jp.a.planned(p.Distance), jp.b.planned(p.Distance), s.plannerConfig(a, b))
	if auto && (jp.a.epoch > 0 || jp.b.epoch > 0) {
		excludeInMem(&d)
	}
	jp.scores = d.Scores
	if auto {
		// Resolved before the cache: the decision is deterministic per
		// dataset version, so auto requests share cache entries with explicit
		// requests for the same engine.
		s.autoJoins.Add(1)
		jp.algo = d.Engine
		jp.plan = &PlannerInfo{Requested: AlgorithmAuto, Fallback: d.Fallback, Scores: d.Scores}
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
// is chosen outright.
func excludeInMem(d *planner.Decision) {
	for i, sc := range d.Scores {
		if sc.Engine == engine.InMem && !math.IsInf(sc.CostMS, 1) {
			d.Scores[i] = planner.Score{Engine: engine.InMem, CostMS: math.Inf(1), Reason: partitionRetired}
		}
	}
	sort.SliceStable(d.Scores, func(i, j int) bool { return d.Scores[i].CostMS < d.Scores[j].CostMS })
	d.Engine, d.Fallback = engine.Transformers, false
}

// priceJoin converts the planner's predicted cost of the resolved engine
// into the request's admission price in slot units: 1 + CostMS/DefaultCostUnitMS,
// so an expensive join occupies many slots (the pool clamps to its capacity —
// such a join runs alone) while typical joins stay at unit price. An engine
// the planner lists without a price (inmem over the in-memory cap) takes the
// whole pool.
func (s *Service) priceJoin(jp *joinPlan) {
	jp.cost = 1
	jp.predictedMS = -1
	for _, sc := range jp.scores {
		// Non-finitely priced candidates are recorded with their reason, not
		// silently dropped: the accuracy sample must show *why* an engine is
		// absent from the score map.
		if math.IsInf(sc.CostMS, 0) || math.IsNaN(sc.CostMS) {
			if jp.excluded == nil {
				jp.excluded = make(map[string]string)
			}
			reason := sc.Reason
			if reason == "" {
				reason = "non-finite predicted cost"
			}
			jp.excluded[sc.Engine] = reason
		}
	}
	for _, sc := range jp.scores {
		if sc.Engine != jp.algo {
			continue
		}
		if math.IsInf(sc.CostMS, 1) || math.IsNaN(sc.CostMS) {
			jp.cost = 1 << 20 // planner refused to price it: full pool
		} else {
			jp.predictedMS = sc.CostMS
			if len(sc.Terms) > 0 {
				jp.terms = make(map[string]float64, len(sc.Terms))
				for _, t := range sc.Terms {
					jp.terms[t.Name] = t.MS
				}
			}
			jp.correction = sc.Correction
			if c := 1 + int(sc.CostMS/DefaultCostUnitMS); c > jp.cost {
				jp.cost = c
			}
		}
		return
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
// recorder. Cache hits replay the cached summary's measurements and are
// flagged so aggregation keeps but does not average them; an inmem join that
// found its partition resident is flagged too, because its measured cost has
// no build while the prediction still prices one. The measured cost
// is the modeled execution currency the planner predicts in
// (build + join wall + modeled I/O), so predicted and measured compare like
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
		MeasuredMS:   summary.BuildMS + summary.JoinWallMS + summary.ModeledIOMS,
		WallMS:       float64(wall) / float64(time.Millisecond),
		CacheHit:     cacheHit,
		PartitionHit: partitionHit,
	}
	sample.A = jp.a.features()
	sample.B = jp.b.features()
	sample.Excluded = jp.excluded
	sample.Terms = jp.terms
	sample.CorrectionFactor = jp.correction
	if len(jp.scores) > 0 {
		sample.Scores = make(map[string]float64, len(jp.scores))
		for _, sc := range jp.scores {
			if !math.IsInf(sc.CostMS, 0) && !math.IsNaN(sc.CostMS) {
				sample.Scores[sc.Engine] = sc.CostMS
			}
		}
	}
	s.obs.recorder.Record(sample)
}
