package planner

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
)

// engines are the engines Plan prices, in scoring order: TRANSFORMERS, which
// joins a dataset's catalog index, and inmem, which joins a pair's resident
// partition. They are the engines the daemon serves (server.ServedEngines);
// every other registered engine runs in-process only and is never planned.
var engines = []string{engine.Transformers, engine.InMem}

// Engines returns the engines Plan prices.
func Engines() []string { return slices.Clone(engines) }

// Config parameterizes one planning pass.
type Config struct {
	// PrebuiltTransformers marks the TRANSFORMERS indexes as already built
	// (the serving catalog builds them at dataset registration), so the
	// transformers engine is priced without its build phase while inmem
	// pays a per-request partition.
	PrebuiltTransformers bool
	// ShardWorkers is ignored: Plan prices no sharded engine. It stays because
	// the benchmark module's planner row sets it.
	ShardWorkers int
	// Correct, when non-nil, returns a multiplicative drift-correction
	// factor for an engine's final predicted cost — the online corrector's
	// per-(dataset-pair, engine) EWMA of measured/predicted (see Corrector).
	// Factors <= 0 (or non-finite) are ignored.
	Correct func(engine string) float64
}

// DefaultMaxInMemoryElements is the combined-cardinality cap above which the
// planner stops auto-selecting inmem: its partition holds both inputs with no
// paging, so under concurrent serving traffic large inputs turn into
// unbounded per-request allocations. Above the cap it is still requestable
// explicitly.
const DefaultMaxInMemoryElements = 250_000

// FitsInMemory reports whether both datasets together fit under
// DefaultMaxInMemoryElements.
func FitsInMemory(a, b DatasetStats) bool {
	return a.Count+b.Count <= DefaultMaxInMemoryElements
}

// CostTerm is one named component of an engine's predicted cost, in
// milliseconds of modeled time, before drift correction. The term vector is
// the operator-facing breakdown of a prediction: where the model thinks the
// time goes.
type CostTerm struct {
	Name string  `json:"name"`
	MS   float64 `json:"ms"`
}

// Score is one engine's predicted cost.
type Score struct {
	Engine string `json:"engine"`
	// CostMS is the predicted end-to-end cost in milliseconds of modeled
	// time (in-memory work + modeled disk I/O — the repository's benchmark
	// currency), after drift correction; math.Inf for engines the planner
	// refuses to auto-select.
	CostMS float64 `json:"cost_ms"`
	// Reason explains the dominant term of the prediction.
	Reason string `json:"reason"`
	// Terms is the decomposition CostMS was assembled from (empty for
	// excluded engines). Kept off the JSON wire — the planner accuracy
	// recorder mirrors the chosen engine's terms into its samples instead.
	Terms []CostTerm `json:"-"`
	// Correction is the Config.Correct drift factor CostMS was multiplied
	// by: 1 when none applied, 0 for excluded engines. Off the wire like
	// Terms, and recorded from here so a sample names the factor that priced
	// the decision it describes.
	Correction float64 `json:"-"`
}

// MarshalJSON keeps Score wire-safe: encoding/json rejects +Inf, so
// non-selectable engines serialize with cost_ms omitted (the reason field
// explains why they were excluded).
func (s Score) MarshalJSON() ([]byte, error) {
	type dto struct {
		Engine string   `json:"engine"`
		CostMS *float64 `json:"cost_ms,omitempty"`
		Reason string   `json:"reason"`
	}
	d := dto{Engine: s.Engine, Reason: s.Reason}
	if !math.IsInf(s.CostMS, 0) && !math.IsNaN(s.CostMS) {
		d.CostMS = &s.CostMS
	}
	return json.Marshal(d)
}

// Decision is the planner's output: the selected engine and the full ranked
// scoring, so responses and /stats can show why.
type Decision struct {
	Engine string `json:"engine"`
	// Fallback reports that the robust default (TRANSFORMERS) was chosen
	// over a nominally cheaper inmem because the predicted advantage was
	// within the model's error margin.
	Fallback bool `json:"fallback,omitempty"`
	// Scores is sorted by ascending predicted cost.
	Scores []Score `json:"scores"`
}

// Cost model constants. Time unit: seconds.
const (
	// tComp prices one element-element MBB intersection test. Uncalibrated:
	// a nominal figure the drift corrector trims per pair.
	tComp = 8e-9
	// tBuildPerElem prices STR-style partitioning per element (sort +
	// assignment), the TRANSFORMERS build when the index is not prebuilt.
	// Uncalibrated.
	tBuildPerElem = 2e-7
	// transformersOverhead is the adaptive-exploration surcharge on top of
	// the data cost (paper §VII-C2 measures ~17%).
	transformersOverhead = 1.17
	// fallbackMargin is the minimum predicted advantage inmem must show over
	// TRANSFORMERS before the planner leaves the robust default (cost-model
	// predictions are rough; robustness is the tie breaker, §VII). A policy
	// margin, not a measurement.
	fallbackMargin = 1.25
	// tInMemPartition prices the inmem engine's stripe partitioning per
	// element: the radix sweep-order sort plus the counting fill of the
	// float32 bound columns. BenchmarkInMemJoin partition+join minus join
	// reads 4.6–5.5 ms for 40K elements, 1.2–1.4e-7 s each; the constant
	// leaves headroom for the larger, cache-colder inputs the daemon joins.
	tInMemPartition = 2e-7
)

// Plan prices the engines on the two datasets' statistics and selects the
// cheapest, with TRANSFORMERS as the robust fallback. The decision is
// deterministic in the inputs.
func Plan(a, b DatasetStats, cfg Config) Decision {
	// Page I/O is priced the way the benchmark currency prices it, on the
	// pages every index is built of.
	disk := storage.DefaultDiskModel()
	m := model{
		a: a, b: b,
		perPage:  float64(storage.ElementsPerPage(storage.DefaultPageSize)),
		tio:      disk.ReadTime(storage.Stats{Reads: 1, SeqReads: 1, BytesRead: storage.DefaultPageSize}).Seconds(),
		seek:     disk.Seek.Seconds(),
		skew:     math.Max(a.SkewCV, b.SkewCV),
		cluster:  math.Max(a.ClusterFraction, b.ClusterFraction),
		prebuilt: cfg.PrebuiltTransformers,
	}

	scores := make([]Score, 0, len(engines))
	for _, name := range engines {
		s := m.score(name)
		// Online drift correction biases the final cost of each priced
		// engine; the terms stay as the model priced them.
		if cfg.Correct != nil && !math.IsInf(s.CostMS, 0) && !math.IsNaN(s.CostMS) {
			if f := cfg.Correct(s.Engine); f > 0 && f != 1 && !math.IsInf(f, 0) && !math.IsNaN(f) {
				s.CostMS *= f
				s.Correction = f
				s.Reason = fmt.Sprintf("%s [drift x%.2f]", s.Reason, f)
			}
		}
		scores = append(scores, s)
	}
	sort.SliceStable(scores, func(i, j int) bool { return scores[i].CostMS < scores[j].CostMS })

	d := Decision{Engine: scores[0].Engine, Scores: scores}
	// Robust fallback: inmem must beat TRANSFORMERS by a clear margin,
	// otherwise prediction error could hand a skew-fragile engine a workload
	// it degrades on.
	if d.Engine != engine.Transformers {
		tr := scores[slices.IndexFunc(scores, func(s Score) bool { return s.Engine == engine.Transformers })]
		if !(tr.CostMS > scores[0].CostMS*fallbackMargin) {
			d.Engine = engine.Transformers
			d.Fallback = true
		}
	}
	return d
}

// model holds the shared signals one planning pass prices engines on.
type model struct {
	a, b     DatasetStats
	perPage  float64 // elements per disk page
	tio      float64 // seconds per sequential page read
	seek     float64 // seconds per random access
	skew     float64
	cluster  float64
	prebuilt bool
}

func (m model) pages(n int) float64 { return math.Ceil(float64(n) / m.perPage) }

// score prices one of the engines.
func (m model) score(name string) Score {
	nA, nB := float64(m.a.Count), float64(m.b.Count)
	switch name {
	case engine.Transformers:
		// Batched, mostly sequential reads; re-reads at finer granularity
		// scale with clustering but stay sequential (the 3% random share is
		// uncalibrated). Robustness: no skew blow-up term. The
		// adaptive-exploration overhead is folded into the io/cpu terms so
		// the decomposition sums to the same total the single formula gave.
		pagesBoth := m.pages(m.a.Count) + m.pages(m.b.Count)
		reread := 1.5 + m.cluster
		io := (pagesBoth*reread*m.tio + pagesBoth*0.03*m.seek) * transformersOverhead
		cpu := (nA + nB) * 12 * tComp * transformersOverhead
		build := 0.0
		if !m.prebuilt {
			build = (nA+nB)*tBuildPerElem + pagesBoth*m.tio
		}
		return priced(name, "batched sequential reads, adapts to skew",
			term{"io", io}, term{"cpu", cpu}, term{"build", build})
	case engine.InMem:
		if !FitsInMemory(m.a, m.b) {
			return Score{Engine: name, CostMS: math.Inf(1),
				Reason: fmt.Sprintf("in-memory engine, |A|+|B|=%d over the %d cap", m.a.Count+m.b.Count, DefaultMaxInMemoryElements)}
		}
		// Pure CPU, cache-resident: quantile stripe partition, then forward
		// sweeps over SoA arrays. Clustering lengthens the sweep's active
		// window and skew unbalances stripes — both inflate comparisons, but
		// only for pairs that genuinely overlap on one axis.
		blowup := 1 + 2*m.cluster + 0.3*m.skew
		sweep := math.Max(nA, nB) * 4 * tComp
		return priced(name, fmt.Sprintf("cache-resident SoA sweep, overlap blow-up x%.2f", blowup),
			term{"partition", (nA + nB) * tInMemPartition},
			term{"sweep", sweep},
			term{"sweep_cluster", sweep * 2 * m.cluster},
			term{"sweep_skew", sweep * 0.3 * m.skew})
	}
	panic("planner: no cost formula for " + name)
}

// term is one named cost component in the model's native seconds.
type term struct {
	name string
	sec  float64
}

// priced assembles an engine's Score from its term decomposition: the terms
// in ms and their sum as CostMS. Zero-valued terms are dropped, which keeps
// recorded samples small.
func priced(name, reason string, terms ...term) Score {
	s := Score{Engine: name, Reason: reason, Correction: 1}
	var total float64
	for _, t := range terms {
		if t.sec == 0 {
			continue
		}
		s.Terms = append(s.Terms, CostTerm{Name: t.name, MS: t.sec * 1e3})
		total += t.sec
	}
	s.CostMS = float64(time.Duration(total*float64(time.Second))) / float64(time.Millisecond)
	return s
}
