package planner

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/storage"
)

// Config parameterizes one planning pass.
type Config struct {
	// PageSize prices index pages; storage.DefaultPageSize when zero.
	PageSize int
	// Engines is the candidate set; the full registry when nil.
	Engines []engine.Joiner
	// PrebuiltTransformers marks the TRANSFORMERS indexes as already built
	// (the serving catalog builds them at dataset registration), so the
	// transformers engine is priced without its build phase while the
	// in-memory engines pay a per-request build.
	PrebuiltTransformers bool
	// ShardWorkers is the worker budget sharded meta-engines are priced
	// at — the fan-out speedup can never exceed it. runtime.GOMAXPROCS(0)
	// when zero (the shard engine's own default worker-pool size).
	ShardWorkers int
	// ShardTiles pins the tile count sharded meta-engines are priced at,
	// matching a request that pins its fan-out; 0 prices the
	// statistics-driven ShardTiles selection the engines default to. The
	// plan must describe the execution the caller will actually run.
	ShardTiles int
	// Correct, when non-nil, returns a multiplicative drift-correction
	// factor for an engine's final predicted cost — the online corrector's
	// per-(dataset-pair, engine) EWMA of measured/predicted (see Corrector).
	// Factors <= 0 (or non-finite) are ignored.
	Correct func(engine string) float64
}

// DefaultMaxInMemoryElements is the combined-cardinality cap above which the
// planner stops auto-selecting in-memory engines: they rebuild their whole
// structure per request with no paging, so under concurrent serving traffic
// large inputs turn into unbounded per-request allocations. Above the cap
// they are still requestable explicitly.
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
	// over a nominally cheaper engine because the predicted advantage was
	// within the model's error margin.
	Fallback bool `json:"fallback,omitempty"`
	// ShardTiles is the tile count the sharded engines were priced at
	// (the Config pin, or the statistics-driven selection). Callers that
	// execute a sharded engine should pass it through to the execution so
	// the O(n) statistics pass is not repeated — and so what runs is what
	// was priced. Zero when no sharded engine was scored.
	ShardTiles int `json:"shard_tiles,omitempty"`
	// Scores is sorted by ascending predicted cost.
	Scores []Score `json:"scores"`
}

// Cost model constants, calibrated against the cross-engine comparison
// recorded in BENCH_1.json (see that file and internal/bench's "engines"
// experiment). Time unit: seconds.
const (
	// tComp prices one element-element MBB intersection test.
	tComp = 8e-9
	// tBuildPerElem prices STR-style partitioning per element (sort +
	// assignment).
	tBuildPerElem = 2e-7
	// transformersOverhead is the adaptive-exploration surcharge on top of
	// the data cost (paper §VII-C2 measures ~17%).
	transformersOverhead = 1.17
	// fallbackMargin is the minimum predicted advantage another engine
	// must show over TRANSFORMERS before the planner leaves the robust
	// default (cost-model predictions are rough; robustness is the tie
	// breaker, §VII).
	fallbackMargin = 1.25
	// tShardPartition prices the shard meta-engine's partitioning pass per
	// element: a Hilbert-cell mapping plus tile assignment (and, for
	// border-straddling MBRs, a few extra cell probes), measured on the
	// shard benchmarks.
	tShardPartition = 2.5e-7
	// tInMemPartition prices the inmem engine's stripe partitioning per
	// element: the radix sweep-order sort plus the counting fill of the
	// float32 bound columns. BenchmarkInMemJoin partition+join minus join
	// reads 4.6–5.5 ms for 40K elements, 1.2–1.4e-7 s each, as it did when
	// the fill copied float64 boxes; the build column of the BENCH_2 engines
	// comparison reads 2.8–3.5e-7 at 200K, and the constant sits between.
	tInMemPartition = 2e-7
	// shardPoolEfficiency discounts the ideal fan-out speedup for pool
	// scheduling, result merging and tile imbalance the density-balanced
	// cut could not remove.
	shardPoolEfficiency = 0.85
)

// Plan prices the candidate engines that have a cost formula on the two
// datasets' statistics and selects the cheapest, with TRANSFORMERS as the
// robust fallback. The decision is deterministic in the inputs.
func Plan(a, b DatasetStats, cfg Config) Decision {
	pageSize := cfg.PageSize
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	// Page I/O is priced the way the benchmark currency prices it.
	disk := storage.DefaultDiskModel()
	engines := cfg.Engines
	if engines == nil {
		engines = engine.All()
	}
	shardWorkers := cfg.ShardWorkers
	if shardWorkers <= 0 {
		shardWorkers = runtime.GOMAXPROCS(0)
	}

	m := model{
		a: a, b: b,
		perPage:      float64(storage.ElementsPerPage(pageSize)),
		tio:          disk.ReadTime(storage.Stats{Reads: 1, SeqReads: 1, BytesRead: uint64(pageSize)}).Seconds(),
		seek:         disk.Seek.Seconds(),
		skew:         math.Max(a.SkewCV, b.SkewCV),
		cluster:      math.Max(a.ClusterFraction, b.ClusterFraction),
		prebuilt:     cfg.PrebuiltTransformers,
		shardWorkers: shardWorkers,
		shardTiles:   cfg.ShardTiles,
	}

	scores := make([]Score, 0, len(engines))
	for _, j := range engines {
		s := m.score(j)
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

	d := Decision{Scores: scores}
	for _, j := range engines {
		if strings.HasPrefix(j.Name(), engine.ShardPrefix) {
			d.ShardTiles = m.pricedShardTiles()
			break
		}
	}
	if len(scores) == 0 {
		d.Engine = engine.Transformers
		d.Fallback = true
		return d
	}
	d.Engine = scores[0].Engine
	// Robust fallback: an in-memory engine must beat TRANSFORMERS by a clear
	// margin, otherwise prediction error could hand a skew-fragile engine a
	// workload it degrades on. The sharded adaptive join is the same
	// algorithm per tile, so it counts as robust: no fallback is needed when
	// it wins.
	//
	// The fallback only exists when TRANSFORMERS is in the candidate set: a
	// caller-supplied Config.Engines without it has opted out of the robust
	// default, so the cheapest candidate stands and Decision.Fallback stays
	// false by construction — there is nothing to fall back to.
	if !robustEngine(d.Engine) {
		for _, s := range scores {
			if s.Engine != engine.Transformers {
				continue
			}
			if !(s.CostMS > scores[0].CostMS*fallbackMargin) {
				d.Engine = engine.Transformers
				d.Fallback = true
			}
			break
		}
	}
	return d
}

// robustEngine reports whether name runs the adaptive TRANSFORMERS join —
// directly or per shard tile — and therefore needs no robust fallback.
func robustEngine(name string) bool {
	return name == engine.Transformers || name == engine.ShardTransformers
}

// pricedShardTiles is the tile count this pass prices sharded engines at:
// the Config pin clamped to the engines' tile cap (what would actually
// run), or the statistics-driven selection.
func (m model) pricedShardTiles() int {
	if m.shardTiles > 0 {
		if m.shardTiles > engine.ShardMaxTiles {
			return engine.ShardMaxTiles
		}
		return m.shardTiles
	}
	return ShardTiles(m.a, m.b)
}

// model holds the shared signals one planning pass prices engines on.
type model struct {
	a, b         DatasetStats
	perPage      float64 // elements per disk page
	tio          float64 // seconds per sequential page read
	seek         float64 // seconds per random access
	skew         float64
	cluster      float64
	prebuilt     bool
	shardWorkers int
	shardTiles   int
}

func (m model) pages(n int) float64 { return math.Ceil(float64(n) / m.perPage) }

// score prices one engine. Engines without a formula — the paper's
// per-request-indexing baselines (pbsm, rtree, gipsy), the naive reference and
// external registrations — are never auto-selected but stay listed, so
// operators see them in the ranking and can request them explicitly.
func (m model) score(j engine.Joiner) Score {
	nA, nB := float64(m.a.Count), float64(m.b.Count)
	pagesBoth := m.pages(m.a.Count) + m.pages(m.b.Count)
	// The in-memory cap binds sharded in-memory engines too: tiles run as
	// threads of one process, so sharding parallelizes the work without
	// shrinking the resident footprint the cap protects.
	switch strings.TrimPrefix(j.Name(), engine.ShardPrefix) {
	case engine.Grid, engine.InMem:
		if !FitsInMemory(m.a, m.b) {
			return Score{Engine: j.Name(), CostMS: math.Inf(1),
				Reason: fmt.Sprintf("in-memory engine, |A|+|B|=%d over the %d cap", m.a.Count+m.b.Count, DefaultMaxInMemoryElements)}
		}
	}
	switch j.Name() {
	case engine.Transformers:
		// Batched, mostly sequential reads; re-reads at finer granularity
		// scale with clustering but stay sequential (BENCH_0: <5% random
		// even on DenseCluster). Robustness: no skew blow-up term. The
		// adaptive-exploration overhead is folded into the io/cpu terms so
		// the decomposition sums to the same total the single formula gave.
		reread := 1.5 + m.cluster
		io := (pagesBoth*reread*m.tio + pagesBoth*0.03*m.seek) * transformersOverhead
		cpu := (nA + nB) * 12 * tComp * transformersOverhead
		build := 0.0
		if !m.prebuilt {
			build = (nA+nB)*tBuildPerElem + pagesBoth*m.tio
		}
		return priced(j, "batched sequential reads, adapts to skew",
			term{"io", io}, term{"cpu", cpu}, term{"build", build})
	case engine.Grid:
		// Pure CPU: hash the smaller side, probe with the larger. Dense
		// cells turn probes quadratic, so clustering and skew are the
		// dominant penalty (the BICOD '15 sizing caps cells at the mean
		// element extent, which clustered data defeats). The per-probe
		// factor covers the multi-cell walk and dedup check around each
		// candidate test, not just the MBB compare (BENCH_2 measures
		// ~2.3e-7s per probe on uniform 100K). The blow-up is split into
		// cluster and skew terms so a sample shows which one priced it.
		blowup := 1 + 6*m.cluster + 0.5*m.skew
		probe := math.Max(nA, nB) * 24 * tComp
		return priced(j, fmt.Sprintf("in-memory hash, dense-cell blow-up x%.2f", blowup),
			term{"build", (nA + nB) * 1.5e-7},
			term{"probe", probe},
			term{"probe_cluster", probe * 6 * m.cluster},
			term{"probe_skew", probe * 0.5 * m.skew})
	case engine.InMem:
		// Pure CPU, cache-resident: quantile stripe partition, then
		// forward sweeps over SoA arrays. Clustering lengthens the sweep's
		// active window and skew unbalances stripes — both inflate
		// comparisons, but far less than grid's dense cells, because the
		// sweep only visits pairs that genuinely overlap on one axis.
		blowup := 1 + 2*m.cluster + 0.3*m.skew
		sweep := math.Max(nA, nB) * 4 * tComp
		return priced(j, fmt.Sprintf("cache-resident SoA sweep, overlap blow-up x%.2f", blowup),
			term{"partition", (nA + nB) * tInMemPartition},
			term{"sweep", sweep},
			term{"sweep_cluster", sweep * 2 * m.cluster},
			term{"sweep_skew", sweep * 0.3 * m.skew})
	default:
		if inner, ok := strings.CutPrefix(j.Name(), engine.ShardPrefix); ok {
			return m.scoreShard(j, inner)
		}
		return Score{Engine: j.Name(), CostMS: math.Inf(1), Reason: "no cost model; request explicitly"}
	}
}

// scoreShard prices a sharded meta-engine: the inner engine's cost on the
// full data (replication-inflated) divided by the effective fan-out speedup,
// plus the partitioning pass. The inner is priced without the prebuilt
// discount — sharding re-partitions raw elements, so catalog indexes do not
// help it. The combined in-memory cap was already applied by the caller (it
// binds sharded in-memory engines too), so an in-memory inner is under it.
func (m model) scoreShard(j engine.Joiner, inner string) Score {
	ij, err := engine.Get(inner)
	if err != nil {
		return Score{Engine: j.Name(), CostMS: math.Inf(1),
			Reason: fmt.Sprintf("inner engine %q not registered", inner)}
	}
	k := m.pricedShardTiles()
	n := m.a.Count + m.b.Count
	mi := m
	mi.prebuilt = false
	is := mi.score(ij)
	if math.IsInf(is.CostMS, 0) || math.IsNaN(is.CostMS) {
		return Score{Engine: j.Name(), CostMS: math.Inf(1),
			Reason: fmt.Sprintf("inner engine excluded: %s", is.Reason)}
	}
	innerCost := is.CostMS / 1e3 // back to the model's seconds
	// Boundary replication grows with the tiles' surface-to-volume ratio;
	// the effective speedup is capped by the worker budget and discounted
	// for pool overhead. K=1 degenerates to the inner engine plus the
	// partitioning pass — never cheaper than running the inner directly,
	// so tiny inputs keep their single-node plan.
	replication := 1 + 0.05*math.Cbrt(float64(k))
	eff := shardPoolEfficiency * math.Min(float64(k), float64(m.shardWorkers))
	if eff < 1 {
		eff = 1
	}
	return priced(j, fmt.Sprintf("%s over %d tiles on %d workers, replication x%.2f",
		inner, k, m.shardWorkers, replication),
		term{"inner", innerCost * replication / eff},
		term{"partition", float64(n) * tShardPartition})
}

// term is one named cost component in the model's native seconds.
type term struct {
	name string
	sec  float64
}

// priced assembles an engine's Score from its term decomposition: the terms
// in ms and their sum as CostMS. Zero-valued terms are dropped, which keeps
// recorded samples small.
func priced(j engine.Joiner, reason string, terms ...term) Score {
	s := Score{Engine: j.Name(), Reason: reason, Correction: 1}
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
