// Learned, self-correcting planner: the three feedback mechanisms that close
// the loop the accuracy recorder (internal/obs) opened.
//
//   - Fit: an offline ridge-regularized least-squares fit of per-engine term
//     multipliers from recorded (terms, measured cost) samples — the
//     -planner-log NDJSON stream is exactly this training set, replayed by
//     cmd/plannerfit into a Calibration the daemon loads at startup.
//   - Corrector: a cheap online per-(dataset-pair, engine) EWMA of
//     measured/predicted that biases future Plan calls while predictions
//     drift between calibration generations.
//   - ExpandStats: distance-join planning input — the base DatasetStats
//     adjusted for the §VIII expansion the execution will actually join, so
//     Plan prices the expanded workload instead of the plain intersect.
//
// SOLAR's learning-based optimizer and LocationSpark's mistake-correcting
// query planner (PAPERS.md) are the blueprints: features from the statistics
// pass, supervision from executed joins.
package planner

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/engine"
)

// Fitting constants.
const (
	// fitRidge is the dimensionless ridge weight pulling each multiplier
	// toward 1 (the hand-tuned prior). It is scaled by the column energy, so
	// a term with no evidence keeps its hand-tuned constant while a
	// well-observed term follows the data. Kept small: cost-term columns are
	// positively correlated (all grow with cardinality), and a heavy ridge
	// smears a genuine multiplier across its correlated neighbors.
	fitRidge = 0.02
	// Multipliers are clamped to a sane band: a fit can refine constants,
	// not invert the model's structure.
	minMultiplier = 0.05
	maxMultiplier = 50.0
)

// EngineCalibration is one engine's fitted term multipliers.
type EngineCalibration struct {
	// Samples is how many usable recorded executions the fit saw.
	Samples int `json:"samples"`
	// Multipliers scale the raw cost terms (Score.Terms) by name; terms
	// absent from the map keep the hand-tuned constant (multiplier 1).
	Multipliers map[string]float64 `json:"multipliers"`
	// MeanRelErrorBefore/After record the in-sample mean relative error at
	// multipliers 1 vs the fitted multipliers — the fit's own report card.
	MeanRelErrorBefore float64 `json:"mean_rel_error_before"`
	MeanRelErrorAfter  float64 `json:"mean_rel_error_after"`
}

// Calibration is a fitted set of per-engine cost-term multipliers, the JSON
// document cmd/plannerfit emits and `spatialjoind -planner-calibration`
// loads. The zero/nil value means "hand-tuned constants everywhere".
type Calibration struct {
	Samples int                          `json:"samples"`
	Engines map[string]EngineCalibration `json:"engines"`
}

// Multiplier returns the calibrated multiplier for one engine's cost term;
// 1 when the calibration is nil or silent about the term. Nil-safe.
func (c *Calibration) Multiplier(engine, term string) float64 {
	if c == nil {
		return 1
	}
	ec, ok := c.Engines[engine]
	if !ok {
		return 1
	}
	m, ok := ec.Multipliers[term]
	if !ok {
		return 1
	}
	return m
}

// Validate rejects calibrations that could poison planning: non-finite or
// non-positive multipliers, or multipliers outside the clamp band the fitter
// itself enforces.
func (c *Calibration) Validate() error {
	if c == nil {
		return nil
	}
	for eng, ec := range c.Engines {
		for name, m := range ec.Multipliers {
			if math.IsNaN(m) || math.IsInf(m, 0) {
				return fmt.Errorf("planner: calibration %s/%s is not finite", eng, name)
			}
			if m < minMultiplier || m > maxMultiplier {
				return fmt.Errorf("planner: calibration %s/%s = %g outside [%g, %g]",
					eng, name, m, minMultiplier, maxMultiplier)
			}
		}
	}
	return nil
}

// ParseCalibration decodes and validates a calibration JSON document
// (cmd/plannerfit's output). Unknown fields and documents fitting no engine
// are rejected so a mangled or wrong file fails loudly at startup instead of
// silently planning uncalibrated.
func ParseCalibration(data []byte) (*Calibration, error) {
	var c Calibration
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("planner: calibration: %w", err)
	}
	if len(c.Engines) == 0 {
		return nil, fmt.Errorf("planner: calibration fits no engine")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

// FitSample is one recorded engine execution: the raw term decomposition the
// planner predicted from (Score.Terms, as mirrored into the accuracy
// recorder's samples) and the measured modeled cost
// (build + join wall + modeled I/O, the planner's currency). Samples with a
// non-positive or non-finite measurement, or without terms, are ignored —
// which is exactly what keeps excluded (Inf/NaN-priced) candidates out of
// the fit.
type FitSample struct {
	Engine     string
	Terms      map[string]float64 // raw term costs, ms
	MeasuredMS float64
}

// usable reports whether a sample can contribute a regression row.
func (s FitSample) usable() bool {
	if s.Engine == "" || len(s.Terms) == 0 {
		return false
	}
	if s.MeasuredMS <= 0 || math.IsInf(s.MeasuredMS, 0) || math.IsNaN(s.MeasuredMS) {
		return false
	}
	sum := 0.0
	for _, v := range s.Terms {
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return false
		}
		sum += v
	}
	return sum > 0
}

// Fit least-squares-fits per-engine term multipliers from recorded samples,
// minimizing Σ (Σ_j c_j·term_j − measured)² with a ridge penalty
// λ·E_j·(c_j − 1)² pulling each multiplier toward the hand-tuned prior
// (E_j is the term's column energy, making the penalty scale-free). The
// system is symmetric positive definite for any λ > 0, so the fit is always
// solvable and the returned multipliers are always finite — guaranteed again
// by the [minMultiplier, maxMultiplier] clamp. Engines with no usable sample
// are simply absent (their constants stay hand-tuned). An error is returned
// only when no engine has a usable sample.
func Fit(samples []FitSample) (*Calibration, error) {
	byEngine := make(map[string][]FitSample)
	usable := 0
	for _, s := range samples {
		if !s.usable() {
			continue
		}
		byEngine[s.Engine] = append(byEngine[s.Engine], s)
		usable++
	}
	if usable == 0 {
		return nil, fmt.Errorf("planner: no usable samples to fit (need terms and a positive measured cost)")
	}
	cal := &Calibration{Samples: usable, Engines: make(map[string]EngineCalibration, len(byEngine))}
	for eng, rows := range byEngine {
		cal.Engines[eng] = fitEngine(rows)
	}
	return cal, nil
}

// fitEngine solves one engine's regularized normal equations.
func fitEngine(rows []FitSample) EngineCalibration {
	// Feature space: the union of term names seen with a positive value.
	nameSet := make(map[string]bool)
	for _, r := range rows {
		for name, v := range r.Terms {
			if v > 0 {
				nameSet[name] = true
			}
		}
	}
	names := make([]string, 0, len(nameSet))
	for name := range nameSet {
		names = append(names, name)
	}
	sort.Strings(names)
	p := len(names)
	ec := EngineCalibration{Samples: len(rows), Multipliers: make(map[string]float64, p)}
	if p == 0 {
		return ec
	}

	// Normal equations M c = v with per-column ridge toward c_j = 1:
	//   M_jk = Σ_i a_ij a_ik + λ E_j δ_jk,  v_j = Σ_i a_ij y_i + λ E_j
	col := func(r FitSample, j int) float64 { return r.Terms[names[j]] }
	M := make([][]float64, p)
	v := make([]float64, p)
	for j := 0; j < p; j++ {
		M[j] = make([]float64, p)
	}
	for _, r := range rows {
		for j := 0; j < p; j++ {
			aj := col(r, j)
			if aj == 0 {
				continue
			}
			v[j] += aj * r.MeasuredMS
			for k := 0; k < p; k++ {
				M[j][k] += aj * col(r, k)
			}
		}
	}
	for j := 0; j < p; j++ {
		energy := M[j][j]
		if energy <= 0 {
			energy = 1
		}
		M[j][j] += fitRidge * energy
		v[j] += fitRidge * energy // prior multiplier 1
	}
	c := solveSPD(M, v)

	before, after := 0.0, 0.0
	for _, r := range rows {
		raw, fit := 0.0, 0.0
		for j := 0; j < p; j++ {
			raw += col(r, j)
			fit += c[j] * col(r, j)
		}
		before += math.Abs(raw-r.MeasuredMS) / r.MeasuredMS
		after += math.Abs(fit-r.MeasuredMS) / r.MeasuredMS
	}
	ec.MeanRelErrorBefore = before / float64(len(rows))
	ec.MeanRelErrorAfter = after / float64(len(rows))
	for j, name := range names {
		m := c[j]
		if math.IsNaN(m) || math.IsInf(m, 0) {
			m = 1
		}
		ec.Multipliers[name] = math.Min(math.Max(m, minMultiplier), maxMultiplier)
	}
	return ec
}

// solveSPD solves M x = v by Gaussian elimination with partial pivoting —
// M is tiny (at most a handful of terms per engine) and, with the ridge,
// symmetric positive definite. M and v are clobbered.
func solveSPD(M [][]float64, v []float64) []float64 {
	p := len(v)
	for j := 0; j < p; j++ {
		pivot := j
		for r := j + 1; r < p; r++ {
			if math.Abs(M[r][j]) > math.Abs(M[pivot][j]) {
				pivot = r
			}
		}
		M[j], M[pivot] = M[pivot], M[j]
		v[j], v[pivot] = v[pivot], v[j]
		if M[j][j] == 0 {
			continue // defensive; cannot happen with the ridge in place
		}
		for r := j + 1; r < p; r++ {
			f := M[r][j] / M[j][j]
			if f == 0 {
				continue
			}
			for k := j; k < p; k++ {
				M[r][k] -= f * M[j][k]
			}
			v[r] -= f * v[j]
		}
	}
	x := make([]float64, p)
	for j := p - 1; j >= 0; j-- {
		s := v[j]
		for k := j + 1; k < p; k++ {
			s -= M[j][k] * x[k]
		}
		if M[j][j] != 0 {
			x[j] = s / M[j][j]
		} else {
			x[j] = 1
		}
	}
	return x
}

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

// Corrector is the online half of the learned planner: a log-space EWMA of
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
// untracked keys. A sharded engine that has not run on the pair yet takes its
// inner engine's factor: its price is the inner's price over tiles (see
// scoreShard), so whatever makes the inner slower or faster than modeled on
// this pair applies to it too. Without that, an inner engine whose measured
// cost settles near twice its prediction sits exactly on the boundary with
// its own uncorrected sharded form, and which of the two a join runs is
// decided by measurement noise. Nil-safe.
func (c *Corrector) Factor(a, b, name string) float64 {
	if c == nil {
		return 1
	}
	c.mu.Lock()
	st := c.m[correctionKey{a, b, name}]
	if st == nil {
		if inner, ok := strings.CutPrefix(name, engine.ShardPrefix); ok {
			st = c.m[correctionKey{a, b, inner}]
		}
	}
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
// transformers.ExpandForDistance), so Plan prices the join that will actually
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
