// Self-correcting planner: the two feedback mechanisms that close the loop
// the accuracy recorder (internal/obs) opened.
//
//   - Corrector: a cheap online per-(dataset-pair, engine) EWMA of
//     measured/predicted that biases future Plan calls. It is the planner's
//     only learner: under a persistent bias anywhere in its [1/4, 4] band the
//     factor is within 10% of it after 12-16 executed joins
//     (TestCorrectorConverges).
//   - ExpandStats: distance-join planning input — the base DatasetStats
//     adjusted for the §VIII expansion the execution will actually join, so
//     Plan prices the expanded workload instead of the plain intersect.
//
// LocationSpark's mistake-correcting query planner (PAPERS.md) is the
// blueprint: supervision from executed joins.
package planner

import (
	"math"
	"sort"
	"sync"
)

// Online drift-correction constants.
const (
	// correctorAlpha is the EWMA weight of one new observation.
	correctorAlpha = 0.15
	// correctorMaxObsRatio clamps one observation's measured/predicted ratio
	// (log-space) before it enters the EWMA, so a single wild outlier moves
	// the factor by at most alpha·ln(16) ≈ e^0.42 ≈ 1.5x from an unbiased
	// state — the "no decision flip on one outlier" property relies on the
	// planner's engine gaps exceeding that.
	correctorMaxObsRatio = 16.0
	// correctorMaxFactor bounds the applied correction factor to [1/x, x]:
	// the corrector trims drift, it does not replace the cost model.
	correctorMaxFactor = 4.0
	// correctorMaxPairs bounds the tracked (dataset-pair, engine) keys;
	// observations for new keys past the bound are dropped (the working set
	// of hot pairs is what matters, and the bound keeps memory flat).
	correctorMaxPairs = 4096
)

// correctionKey identifies one (dataset pair, engine) drift series. The pair
// is ordered as requested — A/B orientation changes the guide/walk sides, so
// the drift need not be symmetric.
type correctionKey struct {
	a, b, engine string
}

// Corrector is the planner's learner: a log-space EWMA of
// measured/predicted per (dataset pair, engine), fed by the accuracy
// recorder's samples and consulted (via Bind) by every Plan call. All methods
// are safe for concurrent use and nil-safe.
type Corrector struct {
	mu sync.Mutex
	m  map[correctionKey]*driftState
}

// driftState is one series: the EWMA of ln(measured/predicted) and the
// observation count.
type driftState struct {
	logRatio float64
	n        int64
}

// Correction is one tracked drift series, as exposed by /debug/planner.
type Correction struct {
	A      string `json:"a"`
	B      string `json:"b"`
	Engine string `json:"engine"`
	// Ratio is the smoothed measured/predicted ratio; Factor is the clamped
	// multiplier Plan applies.
	Ratio   float64 `json:"ratio"`
	Factor  float64 `json:"factor"`
	Samples int64   `json:"samples"`
}

// NewCorrector returns an empty corrector.
func NewCorrector() *Corrector {
	return &Corrector{m: make(map[correctionKey]*driftState)}
}

// Observe folds one executed join's (predicted, measured) pair into the
// engine's drift series for the dataset pair. Non-positive or non-finite
// inputs are ignored — cache-hit replays and unpriced executions never reach
// the EWMA. The series starts at ratio 1 (trust the model) and each
// observation blends in with weight correctorAlpha after log-clamping, so
// convergence under a persistent bias is geometric while a single outlier
// moves the factor by at most ~1.5x.
func (c *Corrector) Observe(a, b, engine string, predictedMS, measuredMS float64) {
	if c == nil || engine == "" {
		return
	}
	if predictedMS <= 0 || measuredMS <= 0 ||
		math.IsInf(predictedMS, 0) || math.IsNaN(predictedMS) ||
		math.IsInf(measuredMS, 0) || math.IsNaN(measuredMS) {
		return
	}
	lr := math.Log(measuredMS / predictedMS)
	maxLog := math.Log(correctorMaxObsRatio)
	if lr > maxLog {
		lr = maxLog
	} else if lr < -maxLog {
		lr = -maxLog
	}
	key := correctionKey{a, b, engine}
	c.mu.Lock()
	st := c.m[key]
	if st == nil {
		if len(c.m) >= correctorMaxPairs {
			c.mu.Unlock()
			return
		}
		st = &driftState{}
		c.m[key] = st
	}
	st.logRatio = (1-correctorAlpha)*st.logRatio + correctorAlpha*lr
	st.n++
	c.mu.Unlock()
}

// Factor returns the correction multiplier for one engine on one dataset
// pair: e^EWMA clamped to [1/correctorMaxFactor, correctorMaxFactor]; 1 for
// untracked keys. Nil-safe.
func (c *Corrector) Factor(a, b, name string) float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	st := c.m[correctionKey{a, b, name}]
	var lr float64
	if st != nil {
		lr = st.logRatio
	}
	c.mu.Unlock()
	if st == nil || lr == 0 {
		return 1
	}
	f := math.Exp(lr)
	if f > correctorMaxFactor {
		return correctorMaxFactor
	}
	if f < 1/correctorMaxFactor {
		return 1 / correctorMaxFactor
	}
	return f
}

// Bind returns a Config.Correct closure for one dataset pair — the seam
// between the serving path (which knows the pair) and Plan (which consults
// per engine). Nil-safe: a nil corrector binds to nil (no correction).
func (c *Corrector) Bind(a, b string) func(engine string) float64 {
	if c == nil {
		return nil
	}
	return func(engine string) float64 { return c.Factor(a, b, engine) }
}

// Len reports the tracked series count. Nil-safe.
func (c *Corrector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Snapshot returns every tracked series, sorted by pair then engine for a
// stable /debug/planner document. Nil-safe.
func (c *Corrector) Snapshot() []Correction {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]Correction, 0, len(c.m))
	for k, st := range c.m {
		out = append(out, Correction{
			A: k.a, B: k.b, Engine: k.engine,
			Ratio:   math.Exp(st.logRatio),
			Samples: st.n,
		})
	}
	c.mu.Unlock()
	for i := range out {
		f := out[i].Ratio
		if f > correctorMaxFactor {
			f = correctorMaxFactor
		}
		if f < 1/correctorMaxFactor {
			f = 1 / correctorMaxFactor
		}
		out[i].Factor = f
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		if out[i].B != out[j].B {
			return out[i].B < out[j].B
		}
		return out[i].Engine < out[j].Engine
	})
	return out
}

// ExpandStats derives the statistics of a dataset's §VIII distance-expanded
// form from its base fingerprint, without touching the elements: every box
// grows by the expansion radius distance/2 per side (matching
// geom.ExpandedForDistance), so Plan prices the join that will actually
// run. Count is unchanged — expansion adds no elements, and the in-memory
// cap keys on cardinality — while the MBB grows by the expansion directly and
// the clustering signals inflate with f, the factor by which each element's
// expanded box covers more analysis-grid cells (the product over dimensions
// of min(1 + d/cellSide, GridDim)):
//
//   - ClusterFraction approaches 1 as expansion merges neighborhoods into
//     dense cells: cf' = 1 - (1-cf)/f.
//   - SkewCV is recomputed against the *base* cell mean: expansion multiplies
//     every occupied cell's effective load by ~f while the element count
//     (the planner's per-element work unit) is unchanged, so the effective
//     variation the blow-up terms price scales with f.
//
// d <= 0 (or empty stats) returns the input unchanged, so intersect joins
// plan exactly as before.
func ExpandStats(st DatasetStats, distance float64) DatasetStats {
	if distance <= 0 || st.Count == 0 || math.IsInf(distance, 0) || math.IsNaN(distance) {
		return st
	}
	out := st
	out.MBB = st.MBB.Expand(distance / 2)
	f := expansionFactor(st, distance)
	if f <= 1 {
		return out
	}
	out.ClusterFraction = 1 - (1-st.ClusterFraction)/f
	out.SkewCV = st.SkewCV * f
	return out
}

// expansionFactor estimates how many times more analysis-grid cells one
// element's box covers after expanding each side by `distance`, clamped per
// dimension to the grid resolution (a box cannot cover more cells than the
// grid has).
func expansionFactor(st DatasetStats, distance float64) float64 {
	if st.GridDim <= 0 {
		return 1
	}
	dim := float64(st.GridDim)
	f := 1.0
	for d := 0; d < 3; d++ {
		side := st.MBB.Side(d) / dim
		if side <= 0 {
			continue // degenerate dimension: expansion cannot split cells
		}
		fd := 1 + distance/side
		if fd > dim {
			fd = dim
		}
		f *= fd
	}
	if total := float64(st.TotalCells); total > 0 && f > total {
		f = total
	}
	return f
}
