package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
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

// priceOf returns the price a plan gives its resolved engine.
func priceOf(jp joinPlan) float64 {
	for _, sc := range jp.scores {
		if sc.Engine == jp.algo {
			return sc.CostMS
		}
	}
	return -1
}

// TestServiceDistanceJoinPlanning: the planner must price the join that
// actually runs. A distance join joins boxes grown by the distance, so its
// walls are a series of their own: a pair's intersection joins and its
// distance joins each explore both engines, and each is priced by its own
// walls.
func TestServiceDistanceJoinPlanning(t *testing.T) {
	svc := NewService(Config{Workers: 1})
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
		if want := svc.walls.Price("a", "b", d, jp.algo); priceOf(jp) != want || want <= 0 {
			t.Fatalf("distance %v: %s planned at %v ms, the table prices it %v", d, jp.algo, priceOf(jp), want)
		}
		for _, sc := range jp.scores {
			if sc.CostMS > priceOf(jp) {
				continue
			}
			if sc.Engine != jp.algo {
				t.Fatalf("distance %v: chose %s over the cheaper %+v", d, jp.algo, sc)
			}
		}
	}
}

// TestServiceRecordsExcludedCandidates: candidates the planner refuses to
// price finitely (here: inmem, over the in-memory cap) are listed in the
// response's planner report with their reason; an engine not yet measured is
// listed unpriced.
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
	out, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: AlgorithmAuto, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	pl := out.Summary.Planner
	if pl == nil || len(pl.Scores) != 2 {
		t.Fatalf("planner report %+v, want both served engines", pl)
	}
	tr, im := pl.Scores[0], pl.Scores[1]
	if im.Engine != engine.InMem || !math.IsInf(im.CostMS, 1) || !strings.Contains(im.Reason, "cap") {
		t.Fatalf("inmem score %+v, want excluded with the cap's reason", im)
	}
	if tr.Engine != engine.Transformers || tr.CostMS != 0 || out.Summary.JoinWallMS <= 0 {
		t.Fatalf("first join on the pair: transformers score %+v, wall %v ms; want it unpriced and a measured wall", tr, out.Summary.JoinWallMS)
	}
}

// TestServiceCorrectorLearnsFromJoins: executed joins feed the wall table —
// a cold pair runs transformers twice and inmem twice — and the next plan
// carries the learned price; cache hits do not feed it.
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
	if want := svc.walls.Price("a", "b", 0, jp.algo); priceOf(jp) != want || want <= 0 {
		t.Fatalf("plan prices %s at %v ms, the table at %v", jp.algo, priceOf(jp), want)
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

// TestPutRestartsWalls: walls measured on a dataset's contents do not price
// the contents a Put replaces them with. A re-upload drops every series
// naming the dataset — /debug/planner stops listing them and "auto" explores
// the pair again, transformers first — and leaves the others; an append does
// not restart them.
func TestPutRestartsWalls(t *testing.T) {
	ts, svc := newTestServer(t, Config{DeltaMaxElements: -1})
	ctx := context.Background()
	addDataset(t, svc, "a", transformers.GenerateUniform(2000, 67))
	addDataset(t, svc, "b", transformers.GenerateUniform(2000, 68))
	addDataset(t, svc, "c", transformers.GenerateUniform(2000, 69))
	// Measured: inmem far cheaper on (a, b) and on (b, c).
	for _, pair := range [][2]string{{"a", "b"}, {"b", "c"}} {
		for i := 0; i < 2; i++ {
			svc.walls.Observe(pair[0], pair[1], 0, engine.Transformers, 1e6)
			svc.walls.Observe(pair[0], pair[1], 0, engine.InMem, 1)
		}
	}
	listed := func() map[[2]string]bool {
		t.Helper()
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
		out := make(map[[2]string]bool)
		for _, w := range doc.Walls {
			out[[2]string{w.A, w.B}] = true
		}
		return out
	}
	auto := func() string {
		t.Helper()
		out, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: AlgorithmAuto, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return out.Summary.Algorithm
	}

	extra := transformers.GenerateUniform(10, 70)
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	if _, err := svc.Append(ctx, "a", extra); err != nil {
		t.Fatal(err)
	}
	if got := listed(); !got[[2]string{"a", "b"}] || !got[[2]string{"b", "c"}] {
		t.Fatalf("after an append /debug/planner lists %v, want (a, b) and (b, c)", got)
	}
	addDataset(t, svc, "a", transformers.GenerateUniform(2000, 71))
	if got := listed(); got[[2]string{"a", "b"}] || !got[[2]string{"b", "c"}] {
		t.Fatalf("after re-uploading a /debug/planner lists %v, want (b, c) alone", got)
	}
	if got := auto(); got != engine.Transformers {
		t.Fatalf("the first auto join after re-uploading a ran %s, want transformers explored", got)
	}
}

// TestExploredPartitionKept: the partition the inmem joins "auto" explores
// stays resident when the wall table then prices transformers lower, so the
// switch back to inmem, once transformers prices higher, joins on it: an
// index hit, not a build.
func TestExploredPartitionKept(t *testing.T) {
	ctx := context.Background()
	svc := NewService(Config{})
	addDataset(t, svc, "a", transformers.GenerateUniform(2000, 65))
	addDataset(t, svc, "b", transformers.GenerateUniform(2000, 66))
	auto := func(want string) {
		t.Helper()
		out, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: AlgorithmAuto, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		if out.Summary.Algorithm != want {
			t.Fatalf("auto ran %s, want %s", out.Summary.Algorithm, want)
		}
	}
	observe := func(wall float64, n int) {
		for i := 0; i < n; i++ {
			svc.walls.Observe("a", "b", 0, engine.Transformers, wall)
		}
	}
	observe(1e-6, 2)
	auto(engine.InMem) // explored
	auto(engine.InMem)
	auto(engine.Transformers) // priced lower
	before := svc.Catalog().Stats()
	if before.Partitions != 1 || before.Builds != 2+1 {
		t.Fatalf("after exploring inmem and leaving it: %d partitions, %d builds; want 1, the uploads' 2 + 1", before.Partitions, before.Builds)
	}
	observe(1e6, 5) // every wall the price reads now prices transformers higher
	auto(engine.InMem)
	after := svc.Catalog().Stats()
	if after.Builds != before.Builds || after.IndexHits != before.IndexHits+1 || after.Partitions != 1 {
		t.Fatalf("the switch back to inmem moved builds %d -> %d and index hits %d -> %d, left %d partitions; want a hit on the one kept",
			before.Builds, after.Builds, before.IndexHits, after.IndexHits, after.Partitions)
	}
}

// TestDebugPlannerKeepsLargestCorrections: past its cap /debug/planner lists
// the most-sampled wall series — ties going to the earlier name — and still
// in pair/engine order, not the first hundred names.
func TestDebugPlannerKeepsLargestCorrections(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	// 150 series in name order: the first 60 observed once, the last 90 five
	// times, so the cap keeps those 90 plus the first 10 names of the rest.
	const series, light, limit = 150, 60, debugPlannerWalls
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
