package obs

import (
	"math"
	"sort"
	"time"
)

// The planner accuracy recorder: every executed join contributes a
// (stats features, candidate scores, chosen engine, predicted cost, measured
// cost) sample — what the online drift corrector learns from. Samples live
// in a bounded ring served at /debug/planner.

// DatasetFeatures are the planner-relevant statistics of one join input.
type DatasetFeatures struct {
	Name            string  `json:"name"`
	Version         int64   `json:"version"`
	Count           int     `json:"count"`
	SkewCV          float64 `json:"skew_cv"`
	ClusterFraction float64 `json:"cluster_fraction"`
}

// PlannerSample is one executed join's prediction-vs-reality record.
type PlannerSample struct {
	Time      time.Time          `json:"time"`
	RequestID string             `json:"request_id,omitempty"`
	A         DatasetFeatures    `json:"a"`
	B         DatasetFeatures    `json:"b"`
	Predicate string             `json:"predicate"`
	Distance  float64            `json:"distance,omitempty"`
	Scores    map[string]float64 `json:"scores,omitempty"` // candidate engine → predicted cost (ms)
	// Excluded records the candidates the planner refused to price finitely
	// (engine → reason), so a sample shows *why* an engine is absent from
	// Scores instead of silently dropping it.
	Excluded map[string]string `json:"excluded,omitempty"`
	// Terms is the chosen engine's cost-term decomposition in ms, before drift
	// correction — the operator-facing breakdown of PredictedMS.
	Terms map[string]float64 `json:"terms,omitempty"`
	// CorrectionFactor is the online drift-correction multiplier that was
	// applied to the chosen engine's predicted cost (0 when no corrector ran,
	// 1 when it had nothing to say).
	CorrectionFactor float64 `json:"correction_factor,omitempty"`
	Engine           string  `json:"engine"` // chosen engine
	Auto             bool    `json:"auto"`   // planner chose (vs explicit request)
	// PredictedMS is the planner's cost estimate for the chosen engine;
	// MeasuredMS is the comparable modeled execution cost
	// (build + join wall + modeled I/O). WallMS is end-to-end request time.
	PredictedMS float64 `json:"predicted_ms"`
	MeasuredMS  float64 `json:"measured_ms"`
	WallMS      float64 `json:"wall_ms"`
	// CacheHit samples replay a cached summary: measured cost reflects the
	// original execution, with zero build on the serving path. They are kept
	// (the planner's choice was still exercised) but excluded from error
	// aggregation so replays don't drown real measurements.
	CacheHit bool `json:"cache_hit,omitempty"`
	// PartitionHit samples ran the inmem kernel on a catalog-resident
	// partition: MeasuredMS has no build phase while PredictedMS and Terms
	// still price one. Real executions: the online drift corrector learns
	// from them.
	PartitionHit bool `json:"partition_hit,omitempty"`
}

// PlannerRecorder is the bounded sample ring.
type PlannerRecorder struct {
	ring     ring[PlannerSample]
	observer func(PlannerSample)
}

// NewPlannerRecorder holds the last n samples (n<=0 → 1). observer, when
// non-nil, is invoked with every recorded sample — the read seam feeding the
// online planner corrector. It runs outside the recorder lock (it may consult
// the recorder) and must do its own filtering (e.g. skip cache hits).
func NewPlannerRecorder(n int, observer func(PlannerSample)) *PlannerRecorder {
	return &PlannerRecorder{ring: newRing[PlannerSample](n), observer: observer}
}

// Record appends a sample; nil-safe.
func (r *PlannerRecorder) Record(s PlannerSample) {
	if r == nil {
		return
	}
	r.ring.add(s)
	if r.observer != nil {
		r.observer(s)
	}
}

// Total returns the lifetime sample count.
func (r *PlannerRecorder) Total() int64 {
	if r == nil {
		return 0
	}
	return r.ring.count()
}

// Snapshot returns retained samples, newest first.
func (r *PlannerRecorder) Snapshot() []PlannerSample {
	if r == nil {
		return nil
	}
	return r.ring.snapshot()
}

// EngineAccuracy aggregates prediction error for one engine.
type EngineAccuracy struct {
	Engine  string `json:"engine"`
	Samples int    `json:"samples"`
	// MeanRelError is mean(|predicted-measured| / measured) over non-cache
	// samples with a positive measured cost.
	MeanRelError float64 `json:"mean_rel_error"`
	// Wins/Losses compare against the best engine in hindsight among joins
	// of the same shape (dataset versions + predicate) executed on at least
	// two distinct engines: a win means this engine's mean measured cost was
	// the group minimum when chosen.
	Wins   int `json:"wins"`
	Losses int `json:"losses"`
}

// PlannerReport is the aggregate served at /debug/planner.
type PlannerReport struct {
	Samples   int              `json:"samples"`
	Total     int64            `json:"total"`
	CacheHits int              `json:"cache_hits"`
	Engines   []EngineAccuracy `json:"engines"`
}

// Report computes per-engine accuracy over the retained samples.
func (r *PlannerRecorder) Report() PlannerReport {
	samples := r.Snapshot()
	rep := PlannerReport{Samples: len(samples), Total: r.Total()}

	type agg struct {
		n      int
		relSum float64
		relN   int
		wins   int
		losses int
	}
	byEngine := make(map[string]*agg)
	get := func(e string) *agg {
		a := byEngine[e]
		if a == nil {
			a = &agg{}
			byEngine[e] = a
		}
		return a
	}

	// Group executed (non-cache) samples by join shape to find the
	// best-in-hindsight engine per shape.
	type groupKey struct {
		a, b      string
		va, vb    int64
		predicate string
		distance  float64
	}
	type engCost struct {
		sum float64
		n   int
	}
	groups := make(map[groupKey]map[string]*engCost)

	for _, s := range samples {
		// Cache hits are counted and then skipped BEFORE any aggregation:
		// a replayed MeasuredMS restates the original execution, so letting
		// it into the means would weight one real run once per replay, and
		// letting it into the hindsight groups would hand wins/losses to
		// whichever engine happened to serve the popular (cached) shape.
		if s.CacheHit {
			rep.CacheHits++
			continue
		}
		a := get(s.Engine)
		a.n++
		// PredictedMS < 0 marks an unpriced join (the planner scored it
		// Inf/NaN); it executes but cannot contribute a relative error.
		if s.MeasuredMS > 0 && s.PredictedMS >= 0 && !math.IsInf(s.PredictedMS, 0) && !math.IsNaN(s.PredictedMS) {
			a.relSum += math.Abs(s.PredictedMS-s.MeasuredMS) / s.MeasuredMS
			a.relN++
		}
		k := groupKey{s.A.Name, s.B.Name, s.A.Version, s.B.Version, s.Predicate, s.Distance}
		g := groups[k]
		if g == nil {
			g = make(map[string]*engCost)
			groups[k] = g
		}
		c := g[s.Engine]
		if c == nil {
			c = &engCost{}
			g[s.Engine] = c
		}
		c.sum += s.MeasuredMS
		c.n++
	}

	for _, g := range groups {
		if len(g) < 2 {
			continue // no alternative executed; hindsight is undefined
		}
		best, bestMean := "", math.Inf(1)
		for e, c := range g {
			if m := c.sum / float64(c.n); m < bestMean {
				best, bestMean = e, m
			}
		}
		for e, c := range g {
			if e == best {
				get(e).wins += c.n
			} else {
				get(e).losses += c.n
			}
		}
	}

	engines := make([]string, 0, len(byEngine))
	for e := range byEngine {
		engines = append(engines, e)
	}
	sort.Strings(engines)
	for _, e := range engines {
		a := byEngine[e]
		acc := EngineAccuracy{Engine: e, Samples: a.n, Wins: a.wins, Losses: a.losses}
		if a.relN > 0 {
			acc.MeanRelError = a.relSum / float64(a.relN)
		}
		rep.Engines = append(rep.Engines, acc)
	}
	return rep
}
