package planner

import (
	"context"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/engine"
)

// TestPlanAppliesCorrection: a Config.Correct factor must scale the final
// cost, mark the reason, and flip the decision when large enough; degenerate
// factors are ignored.
func TestPlanAppliesCorrection(t *testing.T) {
	a := Analyze(datagen.Uniform(datagen.Config{N: 8000, Seed: 14}))
	b := Analyze(datagen.Uniform(datagen.Config{N: 8000, Seed: 15}))
	base := Plan(a, b, Config{})
	if base.Engine != engine.InMem {
		t.Fatalf("baseline chose %q, want inmem", base.Engine)
	}
	inflate := func(eng string) float64 {
		if eng == engine.InMem || eng == engine.ShardInMem {
			return 4
		}
		return 1
	}
	d := Plan(a, b, Config{Correct: inflate})
	if d.Engine == engine.InMem || d.Engine == engine.ShardInMem {
		t.Fatalf("4x-corrected inmem still selected: %+v", d.Scores)
	}
	got, want := scoreOf(t, d, engine.InMem), scoreOf(t, base, engine.InMem)*4
	if math.Abs(got-want)/want > 0.01 {
		t.Errorf("corrected inmem cost %.3f, want %.3f", got, want)
	}
	for _, s := range d.Scores {
		if s.Engine == engine.InMem && !strings.Contains(s.Reason, "drift") {
			t.Errorf("corrected score reason %q does not mark the drift factor", s.Reason)
		}
		// The score carries the factor it was multiplied by: what Correct
		// returned for a priced engine, nothing for an excluded one.
		want := inflate(s.Engine)
		if math.IsInf(s.CostMS, 1) {
			want = 0
		}
		if s.Correction != want {
			t.Errorf("%s: Score.Correction = %v, want %v", s.Engine, s.Correction, want)
		}
	}
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		v := bad
		d := Plan(a, b, Config{Correct: func(string) float64 { return v }})
		if got := scoreOf(t, d, engine.InMem); got != scoreOf(t, base, engine.InMem) {
			t.Errorf("degenerate factor %v changed cost: %v", bad, got)
		}
	}
}

// TestCorrectorConverges pins joins-to-converge, the number that decided the
// corrector is learner enough on its own: under a persistent bias anywhere in
// the [1/correctorMaxFactor, correctorMaxFactor] band the factor is within
// 10% of the true measured/predicted ratio after at most 16 executed joins —
// 1-2% of one 15 s benchmark window — and, the bias removed, back within 10%
// of 1 as fast.
func TestCorrectorConverges(t *testing.T) {
	const maxJoins = 16
	within := func(f, want float64) bool { return math.Abs(f-want)/want <= 0.10 }
	// Measured joins-to-converge: 16, 13, 12, 15, 16.
	for _, bias := range []float64{0.3, 0.5, 2, 3, 4} {
		c := NewCorrector()
		converged := 0
		for i := 1; i <= maxJoins; i++ {
			c.Observe("a", "b", "grid", 10, 10*bias)
			if converged == 0 && within(c.Factor("a", "b", "grid"), bias) {
				converged = i
			}
		}
		t.Logf("bias %v: within 10%% after %d joins", bias, converged)
		if f := c.Factor("a", "b", "grid"); converged == 0 || !within(f, bias) {
			t.Errorf("bias %v: factor %.3f after %d joins, want within 10%%", bias, f, maxJoins)
		}
		for i := 0; i < maxJoins; i++ {
			c.Observe("a", "b", "grid", 10, 10)
		}
		if f := c.Factor("a", "b", "grid"); !within(f, 1) {
			t.Errorf("bias %v removed: factor %.3f after %d unbiased joins, want within 10%% of 1",
				bias, f, maxJoins)
		}
	}
}

// TestCorrectorSingleOutlierNeverFlips: one wild observation moves the factor
// by at most alpha·ln(maxObsRatio) in log space (~1.52x), so a decision whose
// top-two gap exceeds that cannot flip on a single outlier.
func TestCorrectorSingleOutlierNeverFlips(t *testing.T) {
	maxStep := math.Exp(correctorAlpha * math.Log(correctorMaxObsRatio))
	c := NewCorrector()
	c.Observe("a", "b", "x", 1, 1e9) // absurd single outlier
	if f := c.Factor("a", "b", "x"); f > maxStep+1e-9 {
		t.Fatalf("single outlier moved factor to %.3f, bound %.3f", f, maxStep)
	}
	c.Observe("a", "b", "y", 1e9, 1) // absurd in the other direction
	if f := c.Factor("a", "b", "y"); f < 1/maxStep-1e-9 {
		t.Fatalf("single outlier moved factor to %.3f, bound %.3f", 1/maxStep, maxStep)
	}

	// End to end on a real plan: the winner's margin over the runner-up
	// exceeds the single-step bound, so one outlier against the winner must
	// not change the decision. Clustered data gives inmem a ~2x margin over
	// the runner-up; ShardWorkers is pinned so a many-core machine cannot
	// narrow it.
	a := Analyze(datagen.DenseCluster(datagen.Config{N: 30000, Seed: 6}))
	b := Analyze(datagen.DenseCluster(datagen.Config{N: 30000, Seed: 7}))
	cfg := Config{ShardWorkers: 1}
	base := Plan(a, b, cfg)
	if len(base.Scores) < 2 || base.Scores[0].Engine != base.Engine {
		t.Fatalf("unexpected baseline decision %+v", base)
	}
	if gap := base.Scores[1].CostMS / base.Scores[0].CostMS; gap < maxStep*1.05 {
		t.Fatalf("baseline top-two gap %.2f too narrow for the property (bound %.2f)", gap, maxStep)
	}
	cc := NewCorrector()
	cc.Observe("a", "b", base.Engine, base.Scores[0].CostMS, base.Scores[0].CostMS*1e6)
	cfg.Correct = cc.Bind("a", "b")
	d := Plan(a, b, cfg)
	if d.Engine != base.Engine {
		t.Errorf("single outlier flipped the decision: %q -> %q", base.Engine, d.Engine)
	}
}

// TestCorrectorShardInheritsInnerDrift: a sharded engine with no series of its
// own on a pair is corrected by its inner engine's factor, so an inner engine
// whose measured cost settles right at its uncorrected sharded form's price
// keeps its place in the ranking; a sharded engine that has run uses what it
// measured, and nothing else inherits anything.
func TestCorrectorShardInheritsInnerDrift(t *testing.T) {
	c := NewCorrector()
	for i := 0; i < 100; i++ {
		c.Observe("a", "b", engine.InMem, 10, 20)
	}
	inner := c.Factor("a", "b", engine.InMem)
	if math.Abs(inner-2) > 0.05 {
		t.Fatalf("inmem factor %.3f, want ~2", inner)
	}
	if f := c.Factor("a", "b", engine.ShardInMem); f != inner {
		t.Errorf("unobserved shard-inmem factor %.3f, want the inner's %.3f", f, inner)
	}
	for name, f := range map[string]float64{
		"shard-grid on the same pair":  c.Factor("a", "b", engine.ShardGrid),
		"grid on the same pair":        c.Factor("a", "b", engine.Grid),
		"shard-inmem on another pair":  c.Factor("a", "c", engine.ShardInMem),
		"shard-inmem, sides exchanged": c.Factor("b", "a", engine.ShardInMem),
	} {
		if f != 1 {
			t.Errorf("%s: factor %.3f, want 1", name, f)
		}
	}
	if c.Len() != 1 {
		t.Errorf("a lookup created a series: %d tracked, want 1", c.Len())
	}

	// On a real plan: inmem leads its sharded form, and a measured cost just
	// past the sharded form's price must not hand the pair to it.
	a := Analyze(datagen.DenseCluster(datagen.Config{N: 30000, Seed: 6}))
	b := Analyze(datagen.DenseCluster(datagen.Config{N: 30000, Seed: 7}))
	cfg := Config{ShardWorkers: 1}
	base := Plan(a, b, cfg)
	if base.Engine != engine.InMem {
		t.Fatalf("baseline chose %q, want inmem", base.Engine)
	}
	inmemMS, shardMS := scoreOf(t, base, engine.InMem), scoreOf(t, base, engine.ShardInMem)
	cc := NewCorrector()
	for i := 0; i < 100; i++ {
		cc.Observe("a", "b", engine.InMem, inmemMS, shardMS*1.02)
	}
	cfg.Correct = cc.Bind("a", "b")
	d := Plan(a, b, cfg)
	if d.Engine == engine.ShardInMem {
		t.Errorf("drift of inmem alone handed the pair to shard-inmem: %+v", d.Scores)
	}
	if got, want := scoreOf(t, d, engine.ShardInMem)/scoreOf(t, d, engine.InMem), shardMS/inmemMS; math.Abs(got-want)/want > 1e-9 {
		t.Errorf("shard-inmem/inmem cost ratio %.4f after correction, want the model's %.4f", got, want)
	}

	// Its own measurements replace the inherited factor.
	cc.Observe("a", "b", engine.ShardInMem, shardMS, shardMS)
	if f := cc.Factor("a", "b", engine.ShardInMem); f != 1 {
		t.Errorf("observed shard-inmem factor %.3f, want its own series' 1", f)
	}
}

// TestCorrectorBoundsAndHygiene: clamped factors, ignored degenerate inputs,
// bounded key space, nil safety, and a stable snapshot.
func TestCorrectorBounds(t *testing.T) {
	c := NewCorrector()
	for i := 0; i < 1000; i++ {
		c.Observe("a", "b", "x", 1, 1e9)
	}
	if f := c.Factor("a", "b", "x"); f != correctorMaxFactor {
		t.Errorf("persistent huge drift factor %v, want clamp %v", f, correctorMaxFactor)
	}
	for i := 0; i < 1000; i++ {
		c.Observe("a", "b", "y", 1e9, 1)
	}
	if f := c.Factor("a", "b", "y"); f != 1/correctorMaxFactor {
		t.Errorf("persistent tiny drift factor %v, want clamp %v", f, 1/correctorMaxFactor)
	}

	// Degenerate observations must not create state.
	before := c.Len()
	c.Observe("a", "b", "z", 0, 5)
	c.Observe("a", "b", "z", 5, 0)
	c.Observe("a", "b", "z", -1, 5)
	c.Observe("a", "b", "z", math.NaN(), 5)
	c.Observe("a", "b", "z", 5, math.Inf(1))
	c.Observe("a", "b", "", 5, 5)
	if c.Len() != before {
		t.Errorf("degenerate observations created state: %d -> %d", before, c.Len())
	}
	if f := c.Factor("a", "b", "z"); f != 1 {
		t.Errorf("untracked factor %v, want 1", f)
	}

	snap := c.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot has %d series, want 2", len(snap))
	}
	if snap[0].Engine != "x" || snap[1].Engine != "y" {
		t.Errorf("snapshot not sorted: %+v", snap)
	}
	if snap[0].Factor != correctorMaxFactor || snap[0].Samples != 1000 {
		t.Errorf("snapshot series wrong: %+v", snap[0])
	}

	var nilC *Corrector
	nilC.Observe("a", "b", "x", 1, 2)
	if nilC.Factor("a", "b", "x") != 1 || nilC.Len() != 0 || nilC.Snapshot() != nil || nilC.Bind("a", "b") != nil {
		t.Error("nil corrector must be inert")
	}
}

// TestCorrectorKeyBound: past the key cap, new series are dropped (flat
// memory) while existing series keep updating.
func TestCorrectorKeyBound(t *testing.T) {
	c := NewCorrector()
	for i := 0; i < correctorMaxPairs+100; i++ {
		c.Observe("a", string(rune('a'+i%26))+string(rune('0'+i/26%10))+string(rune('A'+i/260)), "x", 1, 2)
	}
	if c.Len() > correctorMaxPairs {
		t.Errorf("tracked %d series, cap %d", c.Len(), correctorMaxPairs)
	}
	c.Observe("a", "a0A", "x", 1, 2) // first key again: still updating
	snap := c.Snapshot()
	if len(snap) == 0 || snap[0].Samples < 2 {
		t.Errorf("existing series stopped updating at the cap: %+v", snap[0])
	}
}

// TestExpandStatsIdentityAndShape: zero/degenerate distances are identity;
// positive distances keep cardinality but inflate extent, clustering and skew
// monotonically.
func TestExpandStats(t *testing.T) {
	st := Analyze(datagen.DenseCluster(datagen.Config{N: 30000, Seed: 7}))
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if got := ExpandStats(st, d); !reflectEqualStats(got, st) {
			t.Errorf("distance %v must be identity", d)
		}
	}
	prevSkew, prevCluster := st.SkewCV, st.ClusterFraction
	for _, d := range []float64{1, 10, 50, 200} {
		ex := ExpandStats(st, d)
		if ex.Count != st.Count || ex.GridDim != st.GridDim || ex.TotalCells != st.TotalCells {
			t.Fatalf("d=%v: expansion changed cardinality/grid shape", d)
		}
		for dim := 0; dim < 3; dim++ {
			if ex.MBB.Side(dim) < st.MBB.Side(dim)+d*0.99 {
				t.Errorf("d=%v: MBB side %d did not grow by the expansion", d, dim)
			}
		}
		if ex.SkewCV < prevSkew {
			t.Errorf("d=%v: SkewCV %v not monotone (prev %v)", d, ex.SkewCV, prevSkew)
		}
		if ex.ClusterFraction < prevCluster || ex.ClusterFraction > 1 {
			t.Errorf("d=%v: ClusterFraction %v out of band (prev %v)", d, ex.ClusterFraction, prevCluster)
		}
		prevSkew, prevCluster = ex.SkewCV, ex.ClusterFraction
	}
	if empty := ExpandStats(DatasetStats{}, 10); empty.Count != 0 {
		t.Error("empty stats must stay empty")
	}
}

// reflectEqualStats compares two stats values field-for-field.
func reflectEqualStats(a, b DatasetStats) bool {
	return reflect.DeepEqual(a, b)
}

// TestExpandedPlanFlipsAndImproves is the distance-join acceptance property:
// on a heavily expanded workload, planning from expansion-adjusted stats must
// change the engine choice — and the change must be an improvement on the
// join that actually runs. Base stats price the massive-cluster pair as a
// cheap grid job; the d=180 expansion (boxes ~180 units wide against ~77-unit
// analysis cells) turns grid's dense cells quadratic and the expanded stats
// say so, flipping the choice to TRANSFORMERS.
//
// The improvement is asserted in a deterministic currency — filter work
// (element MBB tests + steering comparisons) priced at tComp, plus modeled
// I/O from the deterministic page counters — so the test cannot flake on
// machine load. Wall-clock agrees: grid's join phase measures 1.1-1.4x
// slower than transformers' at this expansion (its per-candidate cell walks
// and dedup probes cost more than the counter gap shows).
func TestExpandedPlanFlipsAndImproves(t *testing.T) {
	n := 20000
	const dist = 180.0
	ea := datagen.MassiveCluster(datagen.Config{N: n, Seed: 6})
	eb := datagen.MassiveCluster(datagen.Config{N: n, Seed: 7})
	a, b := Analyze(ea), Analyze(eb)
	get := func(name string) engine.Joiner {
		j, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}
	cfg := Config{Engines: []engine.Joiner{get(engine.Grid), get(engine.Transformers)}}

	base := Plan(a, b, cfg)
	if base.Engine != engine.Grid {
		t.Fatalf("base stats chose %q, want grid\nscores: %+v", base.Engine, base.Scores)
	}
	expanded := Plan(ExpandStats(a, dist), ExpandStats(b, dist), cfg)
	if expanded.Engine != engine.Transformers {
		t.Fatalf("expanded stats chose %q, want transformers\nscores: %+v", expanded.Engine, expanded.Scores)
	}

	// Execute the distance join both ways and compare the deterministic work.
	run := func(name string) *engine.Result {
		res, err := engine.Run(context.Background(), name, ea, eb,
			engine.Options{Distance: dist, DiscardPairs: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	work := func(res *engine.Result) time.Duration {
		cpu := float64(res.Stats.Candidates+res.Stats.MetaComparisons) * tComp
		return time.Duration(cpu*float64(time.Second)) + res.Stats.JoinIOTime
	}
	g, tr := run(engine.Grid), run(engine.Transformers)
	if g.Stats.Refinements != tr.Stats.Refinements {
		t.Fatalf("engines disagree on the filtered pair count: grid %d vs transformers %d",
			g.Stats.Refinements, tr.Stats.Refinements)
	}
	if work(g) <= work(tr) {
		t.Errorf("expanded flip is not an improvement: grid work %v <= transformers %v",
			work(g), work(tr))
	}
}

// TestPlanCustomCandidateSetNoSilentFallback pins the documented behavior for
// caller-supplied candidate sets: without TRANSFORMERS among the candidates
// the robust-fallback loop has nothing to fall back to — the cheapest
// candidate stands, Decision.Fallback stays false, and no engine outside the
// candidate set is ever selected. With TRANSFORMERS in a custom set the
// margin rule applies as usual.
func TestPlanCustomCandidateSetNoSilentFallback(t *testing.T) {
	// Under the in-memory cap, so every candidate below carries a price.
	a := Analyze(datagen.DenseCluster(datagen.Config{N: 60_000, Seed: 6}))
	b := Analyze(datagen.DenseCluster(datagen.Config{N: 60_000, Seed: 7}))
	get := func(name string) engine.Joiner {
		j, err := engine.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		return j
	}

	// The full registry picks the stripe join here, an engine the restricted
	// set below does not hold.
	full := Plan(a, b, Config{PrebuiltTransformers: true, ShardWorkers: 1})
	if full.Engine != engine.InMem {
		t.Fatalf("full registry chose %q, want inmem", full.Engine)
	}

	// The same workload restricted to the hash join and its sharded form:
	// the cheapest of the candidates must win, with no fallback and no
	// out-of-set engine.
	restricted := Plan(a, b, Config{Engines: []engine.Joiner{get(engine.Grid), get(engine.ShardGrid)}, ShardWorkers: 1})
	if restricted.Engine != engine.Grid && restricted.Engine != engine.ShardGrid {
		t.Fatalf("restricted plan chose %q, outside the candidate set", restricted.Engine)
	}
	if restricted.Fallback {
		t.Error("fallback set without TRANSFORMERS among the candidates")
	}
	if restricted.Engine != restricted.Scores[0].Engine {
		t.Errorf("restricted plan must take the cheapest candidate, got %q vs %q",
			restricted.Engine, restricted.Scores[0].Engine)
	}
	if len(restricted.Scores) != 2 || math.IsInf(restricted.Scores[1].CostMS, 0) {
		t.Errorf("want both candidates priced, got %+v", restricted.Scores)
	}

	// TRANSFORMERS in a custom set keeps its robust-default role: grid wins
	// while it is clear of the margin, and loses the decision once it prices
	// only slightly cheaper.
	withT := Config{Engines: []engine.Joiner{get(engine.Grid), get(engine.Transformers)}, PrebuiltTransformers: true}
	base := Plan(a, b, withT)
	if base.Engine != engine.Grid || base.Fallback {
		t.Fatalf("custom set with transformers chose %q (fallback %v)\nscores: %+v", base.Engine, base.Fallback, base.Scores)
	}
	near := 0.9 * scoreOf(t, base, engine.Transformers) / scoreOf(t, base, engine.Grid)
	withT.Correct = func(name string) float64 {
		if name == engine.Grid {
			return near
		}
		return 1
	}
	if d := Plan(a, b, withT); d.Engine != engine.Transformers || !d.Fallback {
		t.Errorf("grid 10%% under transformers: chose %q (fallback %v)\nscores: %+v", d.Engine, d.Fallback, d.Scores)
	}
}
