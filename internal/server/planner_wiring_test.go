package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/transformers"
)

// wallSamples returns how many walls the table holds per engine for one pair
// at one distance.
func wallSamples(svc *Service, a, b string, distance float64) map[string]int64 {
	n := make(map[string]int64)
	for _, w := range svc.PlannerWalls() {
		if w.A == a && w.B == b && w.Distance == distance {
			n[w.Engine] += w.Samples
		}
	}
	return n
}

// TestServiceDistanceJoinPlanning: the planner must price the join that
// actually runs. A distance join joins boxes grown by the distance, so its
// walls are a series of their own: a pair's intersection joins and its
// distance joins each explore both engines, and each is priced by its own
// walls.
func TestServiceDistanceJoinPlanning(t *testing.T) {
	svc := NewService(Config{Workers: 1, Parallelism: 1})
	ctx := context.Background()
	addDataset(t, svc, "a", transformers.GenerateUniform(3000, 6))
	addDataset(t, svc, "b", transformers.GenerateUniform(3000, 7))

	for _, d := range []float64{0, 20} {
		for i := 0; i < 4; i++ {
			if _, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: AlgorithmAuto, Distance: d, NoCache: true}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, d := range []float64{0, 20} {
		if n := wallSamples(svc, "a", "b", d); n[engine.Transformers] != 2 || n[engine.InMem] != 2 {
			t.Fatalf("distance %v: the table holds %v walls, want two of each engine", d, n)
		}
		jp, err := svc.planJoin("a", "b", JoinParams{Algorithm: AlgorithmAuto, Distance: d})
		if err != nil {
			t.Fatal(err)
		}
		if want := svc.walls.Price("a", "b", d, jp.algo); jp.predictedMS != want || want <= 0 {
			t.Fatalf("distance %v: %s planned at %v ms, the table prices it %v", d, jp.algo, jp.predictedMS, want)
		}
		for _, sc := range jp.scores {
			if sc.CostMS > jp.predictedMS {
				continue
			}
			if sc.Engine != jp.algo {
				t.Fatalf("distance %v: chose %s over the cheaper %+v", d, jp.algo, sc)
			}
		}
	}
}

// TestServiceRecordsExcludedCandidates: candidates the planner refuses to
// price finitely (here: inmem, over the in-memory cap) must land in the
// sample's Excluded map with their reason; an engine not yet measured has no
// price in the sample.
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
	if s.Excluded[engine.InMem] == "" {
		t.Fatalf("sample lacks an exclusion reason for inmem: %+v", s.Excluded)
	}
	if len(s.Scores) != 0 || s.PredictedMS != -1 || s.MeasuredMS <= 0 {
		t.Fatalf("first join on the pair: scores %v, predicted %v, measured %v; want no prices and a measured wall", s.Scores, s.PredictedMS, s.MeasuredMS)
	}
}

// TestServiceCorrectorLearnsFromJoins: executed joins feed the wall table
// through the recorder's observer — a cold pair runs transformers twice and
// inmem twice — and the next plan carries the learned price; cache hits do
// not feed it.
func TestServiceCorrectorLearnsFromJoins(t *testing.T) {
	svc := NewService(Config{})
	ctx := context.Background()
	addDataset(t, svc, "a", transformers.GenerateUniform(2000, 63))
	addDataset(t, svc, "b", transformers.GenerateUniform(2000, 64))
	var ran []string
	for i := 0; i < 4; i++ {
		out, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: AlgorithmAuto, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		ran = append(ran, out.Summary.Algorithm)
	}
	if want := []string{engine.Transformers, engine.Transformers, engine.InMem, engine.InMem}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("a cold pair ran %v, want %v", ran, want)
	}
	if n := wallSamples(svc, "a", "b", 0); n[engine.Transformers] != 2 || n[engine.InMem] != 2 {
		t.Fatalf("the table holds %v walls, want two of each engine", n)
	}

	jp, err := svc.planJoin("a", "b", JoinParams{Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	if want := svc.walls.Price("a", "b", 0, jp.algo); jp.predictedMS != want || want <= 0 {
		t.Fatalf("plan prices %s at %v ms, the table at %v", jp.algo, jp.predictedMS, want)
	}

	// A cache fill is an execution and feeds the table; the hit replaying it
	// does not.
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
	total := int64(0)
	for _, n := range wallSamples(svc, "a", "b", 0) {
		total += n
	}
	if total != 5 {
		t.Fatalf("the pair's series hold %d walls after a fill and a hit, want 5", total)
	}
}

// TestExploredPartitionForgotten: once the inmem joins "auto" explores leave
// the table pricing transformers lower, the pair's partition is not kept
// resident; when inmem measures lower, it is.
func TestExploredPartitionForgotten(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		wallTr float64 // the transformers wall the table is seeded with
		kept   int
	}{{1e-6, 0}, {1e6, 1}} {
		svc := NewService(Config{})
		addDataset(t, svc, "a", transformers.GenerateUniform(2000, 65))
		addDataset(t, svc, "b", transformers.GenerateUniform(2000, 66))
		for i := 0; i < 2; i++ {
			svc.walls.Observe("a", "b", 0, engine.Transformers, tc.wallTr)
		}
		for i := 0; i < 2; i++ {
			out, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: AlgorithmAuto, NoCache: true})
			if err != nil {
				t.Fatal(err)
			}
			if out.Summary.Algorithm != engine.InMem {
				t.Fatalf("transformers at %v ms: join %d ran %s, want inmem explored", tc.wallTr, i+1, out.Summary.Algorithm)
			}
			if parts := svc.Catalog().Stats().Partitions; i == 0 && parts != 1 {
				t.Fatalf("after the first explored inmem join %d partitions are resident, want 1", parts)
			}
		}
		if parts := svc.Catalog().Stats().Partitions; parts != tc.kept {
			t.Errorf("transformers at %v ms: %d partitions resident after exploring, want %d", tc.wallTr, parts, tc.kept)
		}
	}
}

// TestDebugPlannerKeepsLargestCorrections: past its cap /debug/planner lists
// the most-sampled wall series — ties going to the earlier name — and still
// in pair/engine order, not the first hundred names.
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
			svc.walls.Observe(name(i), "b", 0, engine.InMem, 20)
		}
	}
	resp, err := http.Get(ts.URL + "/debug/planner")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Walls []planner.Wall `json:"walls"`
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
	for _, w := range doc.Walls {
		got = append(got, w.A)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("/debug/planner walls = %v\nwant the %d most-sampled series in name order: %v", got, limit, want)
	}
}
