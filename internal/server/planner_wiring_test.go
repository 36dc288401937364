package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/transformers"
)

// TestServiceDistanceJoinPlanning: the planner must price the join that
// actually runs. A distance join expands every box by distance/2 per side,
// so the auto decision over base statistics (a tight clustered workload the
// in-memory engine wins) must differ from the decision at a large distance,
// where expansion multiplies the in-memory engine's candidate work past the
// catalog-resident TRANSFORMERS indexes. Before expansion-adjusted planning
// both requests resolved identically — the bug this PR fixes.
func TestServiceDistanceJoinPlanning(t *testing.T) {
	svc := NewService(Config{Workers: 1, Parallelism: 1})
	ctx := context.Background()
	if _, err := svc.AddDataset(ctx, "ma", datagen.MassiveCluster(datagen.Config{N: 20000, Seed: 6})); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(ctx, "mb", datagen.MassiveCluster(datagen.Config{N: 20000, Seed: 7})); err != nil {
		t.Fatal(err)
	}

	base, err := svc.planJoin("ma", "mb", JoinParams{Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	far, err := svc.planJoin("ma", "mb", JoinParams{Algorithm: AlgorithmAuto, Distance: 300})
	if err != nil {
		t.Fatal(err)
	}
	if base.algo != engine.InMem {
		t.Fatalf("base join chose %q, want inmem\nscores: %+v", base.algo, base.scores)
	}
	if far.algo != engine.Transformers {
		t.Fatalf("distance-300 join chose %q, want transformers\nscores: %+v", far.algo, far.scores)
	}
	if base.predictedMS <= 0 || far.predictedMS <= 0 {
		t.Fatalf("predictions must be finite and positive: base %v, far %v", base.predictedMS, far.predictedMS)
	}
	// Expansion must also raise every engine's predicted cost, not just
	// reorder them: the same work over denser, fatter boxes cannot get
	// cheaper.
	baseByEngine := make(map[string]float64, len(base.scores))
	for _, sc := range base.scores {
		baseByEngine[sc.Engine] = sc.CostMS
	}
	for _, sc := range far.scores {
		if b, ok := baseByEngine[sc.Engine]; ok && sc.CostMS < b {
			t.Fatalf("engine %s priced cheaper at distance 300 (%v) than at 0 (%v)", sc.Engine, sc.CostMS, b)
		}
	}
}

// TestServiceRecordsExcludedCandidates: candidates the planner refuses to
// price finitely (here: inmem, over the in-memory cap) must land in the
// sample's Excluded map with their reason, and the chosen engine's term
// decomposition must ride along for /debug/planner's reader.
func TestServiceRecordsExcludedCandidates(t *testing.T) {
	svc := NewService(Config{})
	ctx := context.Background()
	n := planner.DefaultMaxInMemoryElements/2 + 1
	if _, err := svc.AddDataset(ctx, "a", transformers.GenerateUniform(n, 61)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(ctx, "b", transformers.GenerateUniform(n, 62)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: AlgorithmAuto, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	samples := svc.PlannerRecorder().Snapshot()
	if len(samples) != 1 {
		t.Fatalf("got %d samples, want 1", len(samples))
	}
	s := samples[0]
	// inmem must be excluded with a reason, and must not appear among the
	// finite scores.
	if s.Excluded[engine.InMem] == "" {
		t.Fatalf("sample lacks an exclusion reason for inmem: %+v", s.Excluded)
	}
	if _, ok := s.Scores[engine.InMem]; ok {
		t.Fatalf("inmem is both scored and excluded: %+v", s.Scores)
	}
	if len(s.Terms) == 0 {
		t.Fatalf("sample lacks the chosen engine's term decomposition: %+v", s)
	}
	var sum float64
	for name, ms := range s.Terms {
		if ms < 0 {
			t.Fatalf("negative term %s=%v", name, ms)
		}
		sum += ms
	}
	if sum <= 0 {
		t.Fatalf("term decomposition sums to %v, want > 0", sum)
	}
	// First join ever: the corrector had no history, so the factor that was
	// applied is exactly 1 (recorded as such — 0 would mean no corrector).
	if s.CorrectionFactor != 1 {
		t.Fatalf("first join's correction factor = %v, want 1", s.CorrectionFactor)
	}
}

// TestServiceCorrectorLearnsFromJoins: executed joins must feed the online
// corrector through the recorder's observer, bias subsequent plans, and
// surface in the corrections snapshot; cache hits must not train it.
func TestServiceCorrectorLearnsFromJoins(t *testing.T) {
	svc := NewService(Config{})
	ctx := context.Background()
	if _, err := svc.AddDataset(ctx, "a", transformers.GenerateUniform(2000, 63)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(ctx, "b", transformers.GenerateUniform(2000, 64)); err != nil {
		t.Fatal(err)
	}
	var algo string
	for i := 0; i < 3; i++ {
		out, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: AlgorithmAuto, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		algo = out.Summary.Algorithm
	}
	corr := svc.PlannerCorrections()
	if len(corr) == 0 {
		t.Fatal("corrector learned nothing from three executed joins")
	}
	var got *planner.Correction
	for i := range corr {
		if corr[i].A == "a" && corr[i].B == "b" && corr[i].Engine == algo {
			got = &corr[i]
		}
	}
	if got == nil {
		t.Fatalf("no correction series for (a, b, %s): %+v", algo, corr)
	}
	// Every executed join trains exactly one series; the learned bias may
	// flip the auto choice between iterations (that is the corrector doing
	// its job), so the training-count invariant is the TOTAL over the
	// pair's series, not one engine holding all three.
	pairSamples := func(corr []planner.Correction) (total int64) {
		for i := range corr {
			if corr[i].A == "a" && corr[i].B == "b" {
				total += corr[i].Samples
			}
		}
		return total
	}
	if total := pairSamples(corr); total != 3 {
		t.Fatalf("pair's correction series hold %d samples, want 3: %+v", total, corr)
	}
	if got.Samples == 0 {
		t.Fatalf("last executed engine %s recorded no sample: %+v", algo, corr)
	}
	if got.Factor <= 0 {
		t.Fatalf("correction factor %v, want > 0", got.Factor)
	}

	// A fresh plan for the pair must carry the learned factor (and record it
	// in its sample).
	jp, err := svc.planJoin("a", "b", JoinParams{Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	if jp.algo == algo && jp.correction != got.Factor {
		t.Fatalf("plan carries correction %v, corrector says %v", jp.correction, got.Factor)
	}

	// Cache hits replay old measurements and must not train the corrector.
	// The replay pins the filler's resolved engine: the key carries the
	// executed algorithm, so a second auto request only hits if the (still
	// learning) corrector resolves the same way twice — pinning makes the
	// hit about the cache, not about plan stability.
	filler, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: filler.Summary.Algorithm})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Fatal("second cached join was not served from cache")
	}
	// 3 NoCache joins + 1 cache filler = 4 training samples across the
	// pair's series; the cache hit must not be a 5th.
	if total := pairSamples(svc.PlannerCorrections()); total != 4 {
		t.Fatalf("pair's correction series hold %d samples after a cache hit, want 4", total)
	}
}

// TestDebugPlannerKeepsLargestCorrections: past its cap /debug/planner lists
// the most-sampled correction series — ties going to the earlier name — and
// still in pair/engine order, not the first hundred names.
func TestDebugPlannerKeepsLargestCorrections(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	// 150 series in name order: the first 60 observed once, the last 90 five
	// times, so the cap keeps those 90 plus the first 10 names of the rest.
	const series, light, limit = 150, 60, debugPlannerSamples
	name := func(i int) string { return fmt.Sprintf("d%03d", i) }
	for i := 0; i < series; i++ {
		n := 5
		if i < light {
			n = 1
		}
		for j := 0; j < n; j++ {
			svc.corrector.Observe(name(i), "b", engine.InMem, 10, 20)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/planner")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Corrections []planner.Correction `json:"corrections"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; i < limit-(series-light); i++ {
		want = append(want, name(i))
	}
	for i := light; i < series; i++ {
		want = append(want, name(i))
	}
	var got []string
	for _, c := range doc.Corrections {
		got = append(got, c.A)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/debug/planner corrections = %v\nwant the %d most-sampled series in name order: %v", got, limit, want)
	}
}
