package server

import (
	"context"
	"encoding/json"
	"net/http"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/naive"
	"repro/transformers"
)

// TestJoinExplicitEngines drives every registered engine through the service
// and asserts they all report the naive pair count — the serving-layer
// counterpart of the engine equivalence property.
func TestJoinExplicitEngines(t *testing.T) {
	svc := NewService(Config{})
	a := transformers.GenerateDenseCluster(1500, 61)
	b := transformers.GenerateUniformCluster(1500, 62)
	for i := range a {
		a[i].Box = a[i].Box.Expand(3)
	}
	for i := range b {
		b[i].Box = b[i].Box.Expand(3)
	}
	want := len(naive.Join(a, b))
	if want == 0 {
		t.Fatal("degenerate workload")
	}
	if _, err := svc.AddDataset(context.Background(), "a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(context.Background(), "b", b); err != nil {
		t.Fatal(err)
	}
	for _, name := range engine.Names() {
		out, err := svc.Join(context.Background(), "a", "b", JoinParams{Algorithm: name, NoCache: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if out.Summary.Algorithm != name {
			t.Errorf("%s: summary reports %q", name, out.Summary.Algorithm)
		}
		if int(out.Summary.Results) != want {
			t.Errorf("%s: %d results, want %d", name, out.Summary.Results, want)
		}
		if len(out.Pairs) != want {
			t.Errorf("%s: %d pairs, want %d", name, len(out.Pairs), want)
		}
	}
	st := svc.Stats()
	for _, name := range engine.Names() {
		if st.EngineJoins[name] != 1 {
			t.Errorf("engine_joins[%s] = %d, want 1", name, st.EngineJoins[name])
		}
	}
}

// TestJoinAutoReportsPlanAndChoice: an "auto" join must resolve through the
// planner, report the chosen engine plus the ranked scores, and produce the
// same pairs as the explicit request.
func TestJoinAutoReportsPlanAndChoice(t *testing.T) {
	svc := NewService(Config{})
	a := transformers.GenerateUniform(3000, 63)
	b := transformers.GenerateUniform(3000, 64)
	if _, err := svc.AddDataset(context.Background(), "a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(context.Background(), "b", b); err != nil {
		t.Fatal(err)
	}
	out, err := svc.Join(context.Background(), "a", "b", JoinParams{Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary.Planner == nil {
		t.Fatal("auto join reported no planner info")
	}
	if out.Summary.Planner.Requested != AlgorithmAuto {
		t.Errorf("planner requested = %q", out.Summary.Planner.Requested)
	}
	if len(out.Summary.Planner.Scores) < len(engine.Names()) {
		t.Errorf("planner scores incomplete: %d entries", len(out.Summary.Planner.Scores))
	}
	if out.Summary.Algorithm == "" || out.Summary.Algorithm == AlgorithmAuto {
		t.Errorf("auto must resolve to a concrete engine, got %q", out.Summary.Algorithm)
	}
	// The resolved engine's explicit execution must agree.
	explicit, err := svc.Join(context.Background(), "a", "b",
		JoinParams{Algorithm: out.Summary.Algorithm, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if explicit.Summary.Results != out.Summary.Results {
		t.Errorf("auto (%s) results %d != explicit %d",
			out.Summary.Algorithm, out.Summary.Results, explicit.Summary.Results)
	}
	if svc.Stats().AutoJoins != 1 {
		t.Errorf("auto_joins = %d, want 1", svc.Stats().AutoJoins)
	}
}

// TestJoinAutoCacheSharing: auto requests share cache entries with explicit
// requests for the engine the planner resolves to, and hits still report the
// request's own planner info.
func TestJoinAutoCacheSharing(t *testing.T) {
	svc := NewService(Config{})
	a := transformers.GenerateUniform(2000, 65)
	b := transformers.GenerateUniform(2000, 66)
	if _, err := svc.AddDataset(context.Background(), "a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(context.Background(), "b", b); err != nil {
		t.Fatal(err)
	}
	first, err := svc.Join(context.Background(), "a", "b", JoinParams{Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	if first.Cached {
		t.Fatal("first auto join cannot be cached")
	}
	resolved := first.Summary.Algorithm
	// Explicit request for the resolved engine hits the same entry.
	second, err := svc.Join(context.Background(), "a", "b", JoinParams{Algorithm: resolved})
	if err != nil {
		t.Fatal(err)
	}
	if !second.Cached {
		t.Fatal("explicit request for the resolved engine should hit the auto-filled entry")
	}
	if second.Summary.Planner != nil {
		t.Error("explicit hit must not inherit the filler's planner report")
	}
	// A second auto request carries its own planner report, and when it
	// resolves to the same engine (the first join trained the drift
	// corrector, which may flip a near-tied ranking) it hits the shared
	// entry.
	third, err := svc.Join(context.Background(), "a", "b", JoinParams{Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	if third.Summary.Planner == nil {
		t.Error("auto request lost its planner report")
	}
	if third.Summary.Algorithm == resolved && !third.Cached {
		t.Errorf("auto request re-resolved to %s but missed the shared entry", resolved)
	}
}

// TestJoinAutoPrefersTransformersOnSkewedData is the serving-side acceptance
// check: with clustered + skewed catalog datasets big enough to rule out the
// in-memory engines, "auto" must pick the robust adaptive join — single-node
// TRANSFORMERS or its sharded form, depending on the machine's worker budget
// (both run the same algorithm per tile).
func TestJoinAutoPrefersTransformersOnSkewedData(t *testing.T) {
	svc := NewService(Config{})
	a := transformers.GenerateMassiveCluster(140_000, 67)
	b := transformers.GenerateDenseCluster(140_000, 68)
	if _, err := svc.AddDataset(context.Background(), "a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(context.Background(), "b", b); err != nil {
		t.Fatal(err)
	}
	out, err := svc.Join(context.Background(), "a", "b", JoinParams{Algorithm: AlgorithmAuto})
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Summary.Algorithm; got != engine.Transformers && got != engine.ShardTransformers {
		t.Errorf("auto on skewed catalog data chose %q, want the transformers family (scores: %+v)",
			got, out.Summary.Planner.Scores)
	}
}

// TestJoinShardEngine drives an explicit sharded join through the service:
// the pair set matches the single-node inner engine, the summary carries the
// fan-out record, and /stats aggregates it.
func TestJoinShardEngine(t *testing.T) {
	svc := NewService(Config{})
	a := transformers.GenerateDenseCluster(2500, 75)
	b := transformers.GenerateUniformCluster(2500, 76)
	for i := range a {
		a[i].Box = a[i].Box.Expand(2)
	}
	for i := range b {
		b[i].Box = b[i].Box.Expand(2)
	}
	if _, err := svc.AddDataset(context.Background(), "a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(context.Background(), "b", b); err != nil {
		t.Fatal(err)
	}
	single, err := svc.Join(context.Background(), "a", "b",
		JoinParams{Algorithm: engine.Transformers, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := svc.Join(context.Background(), "a", "b",
		JoinParams{Algorithm: engine.ShardTransformers, ShardTiles: 6, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sharded.Pairs) != len(single.Pairs) || sharded.Summary.Results != single.Summary.Results {
		t.Errorf("sharded join: %d pairs, single-node has %d", len(sharded.Pairs), len(single.Pairs))
	}
	sh := sharded.Summary.Shard
	if sh == nil {
		t.Fatal("shard summary missing")
	}
	if sh.Tiles != 6 || sh.Inner != engine.Transformers {
		t.Errorf("shard summary: %+v", sh)
	}

	// A different fan-out must not be served the K=6 execution record.
	again, err := svc.Join(context.Background(), "a", "b",
		JoinParams{Algorithm: engine.ShardTransformers, ShardTiles: 3, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if again.Cached {
		t.Error("K=3 request must not hit the K=6 cache entry")
	}
	if again.Summary.Shard == nil || again.Summary.Shard.Tiles != 3 {
		t.Errorf("K=3 summary: %+v", again.Summary.Shard)
	}
	// Same fan-out does hit.
	hit, err := svc.Join(context.Background(), "a", "b",
		JoinParams{Algorithm: engine.ShardTransformers, ShardTiles: 3, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached {
		t.Error("identical shard request must be served from cache")
	}

	st := svc.Stats()
	if st.Shard.Joins != 2 {
		t.Errorf("stats.shard.joins = %d, want 2 (cache hit excluded)", st.Shard.Joins)
	}
	if st.Shard.TilesRun == 0 {
		t.Error("stats.shard.tiles_run must aggregate executed tiles")
	}
	if st.EngineJoins[engine.ShardTransformers] != 2 {
		t.Errorf("engine_joins[shard-transformers] = %d", st.EngineJoins[engine.ShardTransformers])
	}
}

func TestJoinUnknownAlgorithm(t *testing.T) {
	svc := NewService(Config{})
	if _, err := svc.AddDataset(context.Background(), "a", transformers.GenerateUniform(100, 69)); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Join(context.Background(), "a", "a", JoinParams{Algorithm: "quantum"})
	if err == nil {
		t.Fatal("unknown algorithm must fail")
	}
}

// TestHTTPJoinAlgorithm covers the wire format: explicit engine, auto with
// planner report, and the 400 on unknown names.
func TestHTTPJoinAlgorithm(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"massive_cluster","n":2000,"seed":71}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":2000,"seed":72}}`)

	code, doc := postJSON(t, ts.URL+"/join", `{"a":"a","b":"b","algorithm":"pbsm","no_cache":true}`)
	if code != http.StatusOK {
		t.Fatalf("explicit pbsm join = %d: %v", code, doc)
	}
	sum := doc["summary"].(map[string]any)
	if sum["algorithm"] != "pbsm" {
		t.Errorf("summary.algorithm = %v, want pbsm", sum["algorithm"])
	}

	code, doc = postJSON(t, ts.URL+"/join", `{"a":"a","b":"b","algorithm":"auto","no_cache":true}`)
	if code != http.StatusOK {
		t.Fatalf("auto join = %d: %v", code, doc)
	}
	sum = doc["summary"].(map[string]any)
	planner, ok := sum["planner"].(map[string]any)
	if !ok {
		t.Fatalf("auto summary missing planner: %v", sum)
	}
	if planner["requested"] != "auto" {
		t.Errorf("planner.requested = %v", planner["requested"])
	}
	if scores, ok := planner["scores"].([]any); !ok || len(scores) == 0 {
		t.Errorf("planner.scores missing: %v", planner)
	}
	if sum["algorithm"] == "auto" || sum["algorithm"] == "" {
		t.Errorf("auto did not resolve: %v", sum["algorithm"])
	}

	code, doc = postJSON(t, ts.URL+"/join", `{"a":"a","b":"b","algorithm":"quantum"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm = %d (%v), want 400", code, doc)
	}

	// /stats reports the engine vocabulary and per-engine counters.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if len(st.Algorithms) < 7 { // six engines + auto
		t.Errorf("stats.algorithms = %v", st.Algorithms)
	}
	if st.EngineJoins["pbsm"] == 0 {
		t.Errorf("stats.engine_joins missing pbsm: %v", st.EngineJoins)
	}
	if st.DefaultAlgorithm != engine.Transformers {
		t.Errorf("stats.default_algorithm = %q", st.DefaultAlgorithm)
	}
}

// TestHTTPDistanceJoinWithEngine: the distance predicate composes with
// explicit engines — the engine layer applies the §VIII expansion itself and
// must agree with the catalog's pre-expanded transformers variant.
func TestHTTPDistanceJoinWithEngine(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"uniform","n":1200,"seed":73}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":1200,"seed":74}}`)

	code, tr := postJSON(t, ts.URL+"/join/distance", `{"a":"a","b":"b","distance":25}`)
	if code != http.StatusOK {
		t.Fatalf("transformers distance join = %d", code)
	}
	code, pb := postJSON(t, ts.URL+"/join/distance", `{"a":"a","b":"b","distance":25,"algorithm":"pbsm"}`)
	if code != http.StatusOK {
		t.Fatalf("pbsm distance join = %d", code)
	}
	rTr := tr["summary"].(map[string]any)["results"].(float64)
	rPb := pb["summary"].(map[string]any)["results"].(float64)
	if rTr != rPb || rTr == 0 {
		t.Fatalf("distance joins disagree: transformers=%v pbsm=%v", rTr, rPb)
	}
}

// TestHTTPAutoLeavesPerRequestIndexingToExplicitRequests: on a small × large
// pair — the density contrast GIPSY was designed for — "auto" resolves to the
// catalog-resident TRANSFORMERS indexes, the planner report lists gipsy with a
// reason and no price, and naming gipsy still runs it, to the same pairs.
func TestHTTPAutoLeavesPerRequestIndexingToExplicitRequests(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/datasets", `{"name":"small","generate":{"kind":"uniform","n":1000,"seed":77}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"large","generate":{"kind":"uniform","n":300000,"seed":78}}`)

	sortedPairs := func(doc map[string]any) []geom.Pair {
		t.Helper()
		raw, err := json.Marshal(doc["pairs"])
		if err != nil {
			t.Fatal(err)
		}
		var pairs []geom.Pair
		if err := json.Unmarshal(raw, &pairs); err != nil {
			t.Fatal(err)
		}
		engine.SortPairs(pairs)
		return pairs
	}
	join := func(algo string) map[string]any {
		t.Helper()
		code, doc := postJSON(t, ts.URL+"/join/distance",
			`{"a":"small","b":"large","distance":10,"algorithm":"`+algo+`","parallelism":1,"include_pairs":true,"no_cache":true}`)
		if code != http.StatusOK {
			t.Fatalf("%s join = %d: %v", algo, code, doc)
		}
		return doc
	}

	auto := join("auto")
	sum := auto["summary"].(map[string]any)
	if sum["algorithm"] != engine.Transformers {
		t.Fatalf("auto resolved to %v, want transformers (planner: %v)", sum["algorithm"], sum["planner"])
	}
	listed := false
	for _, s := range sum["planner"].(map[string]any)["scores"].([]any) {
		score := s.(map[string]any)
		if score["engine"] != engine.GIPSY {
			continue
		}
		listed = true
		if _, priced := score["cost_ms"]; priced || score["reason"] == "" {
			t.Errorf("gipsy must be listed with a reason and no cost_ms: %v", score)
		}
	}
	if !listed {
		t.Error("gipsy missing from the planner scores")
	}

	want := sortedPairs(auto)
	if len(want) == 0 {
		t.Fatal("degenerate workload")
	}
	got := sortedPairs(join(engine.GIPSY))
	if !slices.Equal(got, want) {
		t.Errorf("explicit gipsy: %d pairs, transformers %d — pair sets differ", len(got), len(want))
	}
}
