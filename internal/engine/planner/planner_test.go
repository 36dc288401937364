package planner

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/geom"
)

func TestAnalyzeSignals(t *testing.T) {
	n := 30000
	uniform := Analyze(datagen.Uniform(datagen.Config{N: n, Seed: 1}))
	clustered := Analyze(datagen.DenseCluster(datagen.Config{N: n, Seed: 2}))
	skewed := Analyze(datagen.MassiveCluster(datagen.Config{N: n, Seed: 3}))

	if uniform.Count != n || clustered.Count != n || skewed.Count != n {
		t.Fatal("cardinality wrong")
	}
	// Skew must rank uniform < clustered < massive — the signal the whole
	// planner keys on.
	if !(uniform.SkewCV < clustered.SkewCV && clustered.SkewCV < skewed.SkewCV) {
		t.Errorf("skew ordering broken: uniform=%.2f clustered=%.2f skewed=%.2f",
			uniform.SkewCV, clustered.SkewCV, skewed.SkewCV)
	}
	// Uniform data has essentially no mass in >4x-mean cells; MassiveCluster
	// concentrates most of it there.
	if uniform.ClusterFraction > 0.05 {
		t.Errorf("uniform cluster fraction %.2f, want ~0", uniform.ClusterFraction)
	}
	if skewed.ClusterFraction < 0.5 {
		t.Errorf("massive cluster fraction %.2f, want > 0.5", skewed.ClusterFraction)
	}
}

// prices is a Config.Correct giving TRANSFORMERS and inmem the walls tr and
// im (ms; 0 is unmeasured).
func prices(tr, im float64) func(string) float64 {
	return func(name string) float64 {
		if name == engine.InMem {
			return im
		}
		return tr
	}
}

// scoreOf returns the price of one engine in a decision.
func scoreOf(t *testing.T, d Decision, name string) float64 {
	t.Helper()
	for _, s := range d.Scores {
		if s.Engine == name {
			return s.CostMS
		}
	}
	t.Fatalf("engine %q missing from scores %+v", name, d.Scores)
	return 0
}

// TestPlanChoosesTransformersOnNonUniform: on clustered and on skewed
// serving-scale datasets, over the in-memory cap, the planner must select the
// adaptive join — cold, and when inmem measured cheaper on the pair.
func TestPlanChoosesTransformersOnNonUniform(t *testing.T) {
	// Serving scale: above the in-memory cap.
	n := 160_000
	clusteredA, clusteredB := enginetest.ClusteredPair(n, 6, 7)
	skewedA, skewedB := enginetest.SkewedPair(n, 8, 9)
	workloads := []struct {
		name string
		a, b DatasetStats
	}{
		{name: "clustered", a: Analyze(clusteredA), b: Analyze(clusteredB)},
		{name: "skewed", a: Analyze(skewedA), b: Analyze(skewedB)},
	}
	for _, w := range workloads {
		for _, cfg := range []Config{{}, {Correct: prices(50, 5)}} {
			d := Plan(w.a, w.b, cfg)
			if d.Engine != engine.Transformers {
				t.Errorf("%s (measured=%v): planner chose %q, want transformers\nscores: %+v",
					w.name, cfg.Correct != nil, d.Engine, d.Scores)
			}
		}
	}
}

// TestPlanMeasuredAgreement is the measured premise of leaving the
// fixed-layout baselines unpriced: on clustered and skewed data each of them
// must measure slower than TRANSFORMERS, in the repository's modeled-time
// currency, so a planner that never selects them gives nothing up. The
// comparison uses modeled I/O time (deterministic page counters priced by
// the disk model) so the assertion cannot flake on machine load, plus the
// end-to-end total as a sanity check with a generous margin.
func TestPlanMeasuredAgreement(t *testing.T) {
	n := 15000
	workloads := []struct {
		name       string
		genA, genB func() []geom.Element
	}{
		{
			name: "clustered",
			genA: func() []geom.Element { a, _ := enginetest.ClusteredPair(n, 10, 11); return a },
			genB: func() []geom.Element { _, b := enginetest.ClusteredPair(n, 10, 11); return b },
		},
		{
			name: "skewed",
			genA: func() []geom.Element { a, _ := enginetest.SkewedPair(n, 12, 13); return a },
			genB: func() []geom.Element { _, b := enginetest.SkewedPair(n, 12, 13); return b },
		},
	}
	for _, w := range workloads {
		run := func(name string) *engine.Result {
			res, err := engine.Run(context.Background(), name, w.genA(), w.genB(),
				engine.Options{DiscardPairs: true})
			if err != nil {
				t.Fatalf("%s/%s: %v", w.name, name, err)
			}
			return res
		}
		tr := run(engine.Transformers)
		for _, fixed := range []string{engine.PBSM, engine.RTree, engine.GIPSY} {
			res := run(fixed)
			if res.Stats.JoinIOTime <= tr.Stats.JoinIOTime {
				t.Errorf("%s: %s modeled I/O %v <= transformers %v — planner premise broken",
					w.name, fixed, res.Stats.JoinIOTime, tr.Stats.JoinIOTime)
			}
			if res.Stats.JoinTotal <= tr.Stats.JoinTotal {
				t.Errorf("%s: %s join total %v <= transformers %v",
					w.name, fixed, res.Stats.JoinTotal, tr.Stats.JoinTotal)
			}
		}
	}
}

// TestPlanSmallUniformPrefersInMemory: below the in-memory cap, once inmem
// measured cheaper on the pair the planner chooses it — selection follows the
// measurements, not a hardcoded default.
func TestPlanSmallUniformPrefersInMemory(t *testing.T) {
	a := Analyze(datagen.Uniform(datagen.Config{N: 8000, Seed: 14}))
	b := Analyze(datagen.Uniform(datagen.Config{N: 8000, Seed: 15}))
	d := Plan(a, b, Config{Correct: prices(12, 3)})
	if d.Engine != engine.InMem || scoreOf(t, d, engine.InMem) != 3 || scoreOf(t, d, engine.Transformers) != 12 {
		t.Errorf("small uniform: chose %q, want inmem at its measured 3 ms\nscores: %+v", d.Engine, d.Scores)
	}
}

// TestFitsInMemory: the cap gate — boundary-inclusive and symmetric in its
// inputs.
func TestFitsInMemory(t *testing.T) {
	at := func(n int) DatasetStats { return DatasetStats{Count: n} }
	half := DefaultMaxInMemoryElements / 2
	if !FitsInMemory(at(half), at(half)) {
		t.Error("sum equal to the cap must fit")
	}
	if FitsInMemory(at(half+1), at(half)) {
		t.Error("sum over the cap must not fit")
	}
	if FitsInMemory(at(DefaultMaxInMemoryElements), at(1)) {
		t.Error("the cap must bind the combined cardinality")
	}
	if FitsInMemory(at(half), at(half+1)) != FitsInMemory(at(half+1), at(half)) {
		t.Error("gate must be symmetric in a and b")
	}
}

// TestPlanInMemoryCap: the same distribution above the cap must exclude
// inmem and fall to the robust disk-based default, however cheap inmem
// measured.
func TestPlanInMemoryCap(t *testing.T) {
	a := Analyze(datagen.Uniform(datagen.Config{N: 200_000, Seed: 16}))
	b := Analyze(datagen.Uniform(datagen.Config{N: 200_000, Seed: 17}))
	d := Plan(a, b, Config{Correct: prices(100, 1)})
	if d.Engine != engine.Transformers {
		t.Errorf("above cap: chose %q, want transformers\nscores: %+v", d.Engine, d.Scores)
	}
	if im := scoreOf(t, d, engine.InMem); !math.IsInf(im, 1) {
		t.Errorf("inmem over the cap must score +Inf, got %v", im)
	}
}

// stubEngine is an externally registered engine with no planner formula.
type stubEngine struct{}

func (stubEngine) Name() string { return "stub" }
func (stubEngine) JoinStream(ctx context.Context, a, b []geom.Element, opt engine.Options, emit engine.EmitFunc) (*engine.Result, error) {
	return &engine.Result{Engine: "stub"}, nil
}

// TestPlanUnknownEngineNeverAutoSelected: Plan scores exactly Engines,
// whatever else the registry holds — an external registration, the paper's
// baselines, the sharded forms — so auto never selects any of them.
func TestPlanUnknownEngineNeverAutoSelected(t *testing.T) {
	if _, err := engine.Get("stub"); err != nil {
		engine.Register(stubEngine{})
	}
	a := Analyze(datagen.Uniform(datagen.Config{N: 1000, Seed: 18}))
	b := Analyze(datagen.Uniform(datagen.Config{N: 1000, Seed: 19}))
	d := Plan(a, b, Config{})
	var scored []string
	for _, s := range d.Scores {
		scored = append(scored, s.Engine)
	}
	slices.Sort(scored)
	want := Engines()
	slices.Sort(want)
	if !slices.Equal(scored, want) {
		t.Errorf("Plan scored %v, want exactly %v", scored, want)
	}
	if !slices.Contains(want, d.Engine) {
		t.Errorf("auto selected %q, outside %v", d.Engine, want)
	}
}

// TestPlanDaemonSweepNeverIndexesPerRequest sweeps the statistics space with
// inmem measured cheaper on every pair: auto must resolve to one of Engines —
// a catalog structure reused, never a paged index built per request — and to
// inmem exactly under the in-memory cap. The MBB axis varies the
// volume-per-element ratio of the two sides, the signal under which a priced
// gipsy once took the high-contrast cells.
func TestPlanDaemonSweepNeverIndexesPerRequest(t *testing.T) {
	stats := func(n int, skew, cluster, side float64) DatasetStats {
		return DatasetStats{Count: n, SkewCV: skew, ClusterFraction: cluster,
			MBB: geom.Box{Hi: geom.Point{side, side, side}}, GridDim: 32, TotalCells: 32 * 32 * 32}
	}
	cards := []int{10, 100, 1_000, 10_000, 100_000, 500_000, 1_000_000, 5_000_000}
	cfg := Config{PrebuiltTransformers: true, Correct: prices(20, 10)}
	bad := make(map[string]int)
	for _, na := range cards {
		for _, nb := range cards {
			for _, skew := range []float64{0.3, 1, 2, 4, 8} {
				for _, cluster := range []float64{0, 0.1, 0.5, 0.9} {
					for _, side := range []float64{1000, 464, 100} {
						a, b := stats(na, skew, cluster, 1000), stats(nb, skew, cluster, side)
						d := Plan(a, b, cfg)
						switch {
						case d.Engine == engine.Transformers && !FitsInMemory(a, b):
						case d.Engine == engine.InMem && FitsInMemory(a, b):
						default:
							bad[d.Engine]++
						}
					}
				}
			}
		}
	}
	if len(bad) > 0 {
		t.Errorf("auto resolved against the measured walls or the cap in %v of 3840 cells", bad)
	}
}

// TestPlanDeterministic: same stats and walls in, same decision out.
func TestPlanDeterministic(t *testing.T) {
	a := Analyze(datagen.MassiveCluster(datagen.Config{N: 50000, Seed: 20}))
	b := Analyze(datagen.Uniform(datagen.Config{N: 50000, Seed: 21}))
	cfg := Config{Correct: prices(7, 0)}
	first := Plan(a, b, cfg)
	for i := 0; i < 3; i++ {
		again := Plan(a, b, cfg)
		if again.Engine != first.Engine || len(again.Scores) != len(first.Scores) {
			t.Fatal("planning is not deterministic")
		}
		for j := range again.Scores {
			if !reflect.DeepEqual(again.Scores[j], first.Scores[j]) {
				t.Fatalf("score %d differs across runs", j)
			}
		}
	}
}

// TestScoreJSONSafeOnInf: +Inf scores (excluded engines) must serialize —
// the score list rides inside every "auto" HTTP join response.
func TestScoreJSONSafeOnInf(t *testing.T) {
	d := Decision{Engine: engine.Transformers, Scores: []Score{
		{Engine: engine.Transformers, CostMS: 12.5, Reason: "ok"},
		{Engine: engine.Naive, CostMS: math.Inf(1), Reason: "excluded"},
	}}
	raw, err := json.Marshal(d)
	if err != nil {
		t.Fatalf("marshal decision with Inf score: %v", err)
	}
	var back struct {
		Scores []struct {
			Engine string   `json:"engine"`
			CostMS *float64 `json:"cost_ms"`
		} `json:"scores"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Scores[0].CostMS == nil || *back.Scores[0].CostMS != 12.5 {
		t.Error("finite cost lost in serialization")
	}
	if back.Scores[1].CostMS != nil {
		t.Error("infinite cost must serialize as absent")
	}
}

// BenchmarkAnalyze measures the statistics pass the catalog runs beside each
// upload's index build, on a 100K uniform upload.
func BenchmarkAnalyze(b *testing.B) {
	elems := datagen.Uniform(datagen.Config{N: 100000, Seed: 1})
	mbb := geom.MBBOf(elems)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		AnalyzePieces([][]geom.Element{elems}, mbb)
	}
}
