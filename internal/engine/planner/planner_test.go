package planner

import (
	"context"
	"encoding/json"
	"math"
	"reflect"
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

// scoreOf returns the predicted cost of one engine in a decision.
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

// TestPlanChoosesTransformersOnNonUniform is the acceptance property: on
// clustered and on skewed serving-scale datasets the planner must select the
// adaptive join — either single-node TRANSFORMERS or its sharded form
// (whichever the worker budget favors; both run the same robust algorithm).
func TestPlanChoosesTransformersOnNonUniform(t *testing.T) {
	// Serving scale: above the in-memory cap, so the choice is among the
	// paged engines.
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
		for _, prebuilt := range []bool{false, true} {
			d := Plan(w.a, w.b, Config{PrebuiltTransformers: prebuilt})
			if d.Engine != engine.Transformers && d.Engine != engine.ShardTransformers {
				t.Errorf("%s (prebuilt=%v): planner chose %q, want the transformers family\nscores: %+v",
					w.name, prebuilt, d.Engine, d.Scores)
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

// TestPlanSmallUniformPrefersInMemory: below the in-memory cap on smooth
// data the cache-resident stripe join is genuinely cheapest (no paged index,
// no I/O, no per-candidate hash probing) and the planner should say so —
// selection is statistics-driven, not a hardcoded default. Grid must still
// rank as a finite (selectable) alternative.
func TestPlanSmallUniformPrefersInMemory(t *testing.T) {
	a := Analyze(datagen.Uniform(datagen.Config{N: 8000, Seed: 14}))
	b := Analyze(datagen.Uniform(datagen.Config{N: 8000, Seed: 15}))
	d := Plan(a, b, Config{})
	if d.Engine != engine.InMem {
		t.Errorf("small uniform: chose %q, want inmem\nscores: %+v", d.Engine, d.Scores)
	}
	if g := scoreOf(t, d, engine.Grid); math.IsInf(g, 1) {
		t.Errorf("grid under the cap must stay selectable, got +Inf")
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

// TestPlanInMemoryCap: the same distribution above the cap must exclude the
// in-memory engines and fall to the robust disk-based default (single-node
// or sharded, depending on the worker budget).
func TestPlanInMemoryCap(t *testing.T) {
	a := Analyze(datagen.Uniform(datagen.Config{N: 200_000, Seed: 16}))
	b := Analyze(datagen.Uniform(datagen.Config{N: 200_000, Seed: 17}))
	d := Plan(a, b, Config{})
	if d.Engine != engine.Transformers && d.Engine != engine.ShardTransformers {
		t.Errorf("above cap: chose %q, want the transformers family\nscores: %+v", d.Engine, d.Scores)
	}
	if g := scoreOf(t, d, engine.Grid); !math.IsInf(g, 1) {
		t.Errorf("grid over the cap must score +Inf, got %v", g)
	}
	if im := scoreOf(t, d, engine.InMem); !math.IsInf(im, 1) {
		t.Errorf("inmem over the cap must score +Inf, got %v", im)
	}
	if im := scoreOf(t, d, engine.ShardInMem); !math.IsInf(im, 1) {
		t.Errorf("shard-inmem over the cap must score +Inf, got %v", im)
	}
}

// stubEngine is an externally registered engine with no planner formula.
type stubEngine struct{}

func (stubEngine) Name() string { return "stub-shard" }
func (stubEngine) JoinStream(ctx context.Context, a, b []geom.Element, opt engine.Options, emit engine.EmitFunc) (*engine.Result, error) {
	return &engine.Result{Engine: "stub-shard"}, nil
}

// TestPlanUnknownEngineNeverAutoSelected: engines the registry serves but
// the cost model cannot price stay listed (operators can request them) but
// are never chosen by auto.
func TestPlanUnknownEngineNeverAutoSelected(t *testing.T) {
	a := Analyze(datagen.Uniform(datagen.Config{N: 1000, Seed: 18}))
	b := Analyze(datagen.Uniform(datagen.Config{N: 1000, Seed: 19}))
	all := append(engine.All(), stubEngine{})
	d := Plan(a, b, Config{Engines: all})
	if d.Engine == "stub-shard" {
		t.Fatal("auto selected an unpriced engine")
	}
	if s := scoreOf(t, d, "stub-shard"); !math.IsInf(s, 1) {
		t.Errorf("unpriced engine must score +Inf, got %v", s)
	}
}

// TestPlanDeterministic: same stats in, same decision out — the property the
// cache keying of "auto" requests relies on.
func TestPlanDeterministic(t *testing.T) {
	a := Analyze(datagen.MassiveCluster(datagen.Config{N: 50000, Seed: 20}))
	b := Analyze(datagen.Uniform(datagen.Config{N: 50000, Seed: 21}))
	first := Plan(a, b, Config{PrebuiltTransformers: true})
	for i := 0; i < 3; i++ {
		again := Plan(a, b, Config{PrebuiltTransformers: true})
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
