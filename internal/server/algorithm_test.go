package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/internal/geom"
	"repro/internal/naive"
	"repro/transformers"
)

// TestJoinExplicitEngines drives every served engine through the service and
// asserts they all report the naive pair count — the serving-layer
// counterpart of the engine equivalence property, which holds every
// registered engine to naive in-process.
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
	for _, name := range ServedEngines() {
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
	for _, name := range ServedEngines() {
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
	if len(out.Summary.Planner.Scores) != len(ServedEngines()) {
		t.Errorf("planner scores: %d entries, want one per served engine", len(out.Summary.Planner.Scores))
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
// in-memory engine, "auto" must pick the robust adaptive join.
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
	if got := out.Summary.Algorithm; got != engine.Transformers {
		t.Errorf("auto on skewed catalog data chose %q, want transformers (scores: %+v)",
			got, out.Summary.Planner.Scores)
	}
}

func TestJoinUnknownAlgorithm(t *testing.T) {
	svc := NewService(Config{})
	if _, err := svc.AddDataset(context.Background(), "a", transformers.GenerateUniform(100, 69)); err != nil {
		t.Fatal(err)
	}
	_, err := svc.Join(context.Background(), "a", "a", JoinParams{Algorithm: "quantum"})
	if !errors.Is(err, ErrUnknownAlgorithm) {
		t.Fatalf("unknown algorithm: err = %v, want ErrUnknownAlgorithm", err)
	}
}

// TestUnservedEnginesAreBadRequests: every registered engine outside
// ServedEngines is refused by CheckAlgorithm (what spatialjoind checks
// -default-algorithm with) and is a 400 naming the served ones, on both join
// endpoints, that never reaches the pool; the sharded engines' tile pin is an
// unknown field; /stats lists the served engines plus auto.
func TestUnservedEnginesAreBadRequests(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"uniform","n":500,"seed":79}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"dense_cluster","n":500,"seed":80}}`)
	completed := svc.Stats().Pool.Completed

	for _, name := range append(engine.Names(), AlgorithmAuto) {
		err := CheckAlgorithm(name)
		if slices.Contains(ServedEngines(), name) || name == AlgorithmAuto {
			if err != nil {
				t.Errorf("CheckAlgorithm(%q) = %v, want nil", name, err)
			}
			continue
		}
		if !errors.Is(err, ErrUnknownAlgorithm) || !strings.Contains(err.Error(), "transformers, inmem") {
			t.Errorf("CheckAlgorithm(%q) = %v, want an ErrUnknownAlgorithm naming the served engines", name, err)
		}
		for _, path := range []string{"/join", "/join/distance"} {
			body := `{"a":"a","b":"b","algorithm":"` + name + `"`
			if path == "/join/distance" {
				body += `,"distance":25`
			}
			code, doc := postJSON(t, ts.URL+path, body+"}")
			msg, _ := doc["error"].(string)
			if code != http.StatusBadRequest || !strings.Contains(msg, "transformers, inmem") {
				t.Errorf("%s %s = %d %q, want a 400 naming the served engines", path, name, code, msg)
			}
			if st := svc.Stats().Pool; st.Active != 0 || st.Queued != 0 || st.Completed != completed {
				t.Fatalf("%s %s reached the pool: %+v", path, name, st)
			}
		}
	}
	code, doc := postJSON(t, ts.URL+"/join", `{"a":"a","b":"b","algorithm":"auto","shard_tiles":4}`)
	if msg, _ := doc["error"].(string); code != http.StatusBadRequest || !strings.Contains(msg, "shard_tiles") {
		t.Errorf("shard_tiles = %d %q, want an unknown-field 400", code, msg)
	}

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Algorithms []string `json:"algorithms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if want := []string{"transformers", "inmem", "auto"}; !slices.Equal(st.Algorithms, want) {
		t.Errorf("stats.algorithms = %v, want %v", st.Algorithms, want)
	}
}

// TestAutoPlansOnlyServedEngines: on a pair where the full registry's plan,
// priced at the service's two workers, picks a sharded engine, "auto"
// resolves to a served engine, ranks the served engines only, and answers
// the naive pairs.
func TestAutoPlansOnlyServedEngines(t *testing.T) {
	if testing.Short() {
		t.Skip("a 14K x 14K join of about a million pairs, checked against naive")
	}
	const distance = 100
	svc := NewService(Config{Parallelism: 2})
	a := transformers.GenerateMassiveCluster(14_000, 2)
	b := transformers.GenerateDendrites(14_000, 2)
	addDataset(t, svc, "a", cpElems(a))
	addDataset(t, svc, "b", cpElems(b))

	ia, err := svc.cat.joinInput("a")
	if err != nil {
		t.Fatal(err)
	}
	ib, err := svc.cat.joinInput("b")
	if err != nil {
		t.Fatal(err)
	}
	full := planner.Plan(ia.planned(distance), ib.planned(distance), planner.Config{PrebuiltTransformers: true, ShardWorkers: 2})
	if !strings.HasPrefix(full.Engine, engine.ShardPrefix) {
		t.Fatalf("precondition: the full registry's plan picks %q, want a sharded engine", full.Engine)
	}

	out, err := svc.Join(context.Background(), "a", "b", JoinParams{Algorithm: AlgorithmAuto, Distance: distance, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ServedEngines(), out.Summary.Algorithm) {
		t.Errorf("auto resolved to %q, want a served engine (the full registry picks %q)", out.Summary.Algorithm, full.Engine)
	}
	var scored []string
	for _, sc := range out.Summary.Planner.Scores {
		scored = append(scored, sc.Engine)
	}
	want := ServedEngines()
	slices.Sort(scored)
	slices.Sort(want)
	if !slices.Equal(scored, want) {
		t.Errorf("planner scores name %v, want exactly %v", scored, want)
	}
	if ref := naiveRef(a, b, distance); !pairsMatch(out.Pairs, ref) {
		t.Errorf("auto (%s): %d pairs, naive has %d", out.Summary.Algorithm, len(out.Pairs), len(ref))
	}
}

// TestHTTPJoinAlgorithm covers the wire format: explicit engine, auto with
// planner report, and the 400 on unknown names.
func TestHTTPJoinAlgorithm(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"massive_cluster","n":2000,"seed":71}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":2000,"seed":72}}`)

	code, doc := postJSON(t, ts.URL+"/join", `{"a":"a","b":"b","algorithm":"inmem","no_cache":true}`)
	if code != http.StatusOK {
		t.Fatalf("explicit inmem join = %d: %v", code, doc)
	}
	sum := doc["summary"].(map[string]any)
	if sum["algorithm"] != engine.InMem {
		t.Errorf("summary.algorithm = %v, want inmem", sum["algorithm"])
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

	// /stats reports the per-engine counters and the default.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.EngineJoins[engine.InMem] == 0 {
		t.Errorf("stats.engine_joins missing inmem: %v", st.EngineJoins)
	}
	if st.DefaultAlgorithm != engine.Transformers {
		t.Errorf("stats.default_algorithm = %q", st.DefaultAlgorithm)
	}
}

// TestHTTPDistanceJoinWithEngine: the distance predicate composes with
// either served engine — the inmem partition grows the boxes as it is built
// and must agree with the transformers join through the grown index view.
func TestHTTPDistanceJoinWithEngine(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"uniform","n":1200,"seed":73}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":1200,"seed":74}}`)

	code, tr := postJSON(t, ts.URL+"/join/distance", `{"a":"a","b":"b","distance":25}`)
	if code != http.StatusOK {
		t.Fatalf("transformers distance join = %d", code)
	}
	code, im := postJSON(t, ts.URL+"/join/distance", `{"a":"a","b":"b","distance":25,"algorithm":"inmem"}`)
	if code != http.StatusOK {
		t.Fatalf("inmem distance join = %d", code)
	}
	rTr := tr["summary"].(map[string]any)["results"].(float64)
	rIm := im["summary"].(map[string]any)["results"].(float64)
	if rTr != rIm || rTr == 0 {
		t.Fatalf("distance joins disagree: transformers=%v inmem=%v", rTr, rIm)
	}
}

// TestHTTPAutoLeavesPerRequestIndexingToExplicitRequests: on a small × large
// pair over the in-memory cap, "auto" resolves to the catalog-resident
// TRANSFORMERS indexes, the planner report lists inmem — whose partition such
// a pair builds per request — with a reason and no price, and naming inmem
// still runs it, to the same pairs. An engine the daemon does not serve, such
// as GIPSY, is refused.
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
	join := func(algo string, status int) map[string]any {
		t.Helper()
		code, doc := postJSON(t, ts.URL+"/join/distance",
			`{"a":"small","b":"large","distance":10,"algorithm":"`+algo+`","parallelism":1,"include_pairs":true,"no_cache":true}`)
		if code != status {
			t.Fatalf("%s join = %d, want %d: %v", algo, code, status, doc)
		}
		return doc
	}

	auto := join("auto", http.StatusOK)
	sum := auto["summary"].(map[string]any)
	if sum["algorithm"] != engine.Transformers {
		t.Fatalf("auto resolved to %v, want transformers (planner: %v)", sum["algorithm"], sum["planner"])
	}
	listed := false
	for _, s := range sum["planner"].(map[string]any)["scores"].([]any) {
		score := s.(map[string]any)
		if score["engine"] != engine.InMem {
			continue
		}
		listed = true
		if _, priced := score["cost_ms"]; priced || score["reason"] == "" {
			t.Errorf("inmem over the cap must be listed with a reason and no cost_ms: %v", score)
		}
	}
	if !listed {
		t.Error("inmem missing from the planner scores")
	}

	want := sortedPairs(auto)
	if len(want) == 0 {
		t.Fatal("degenerate workload")
	}
	got := sortedPairs(join(engine.InMem, http.StatusOK))
	if !slices.Equal(got, want) {
		t.Errorf("explicit inmem: %d pairs, transformers %d — pair sets differ", len(got), len(want))
	}
	join(engine.GIPSY, http.StatusBadRequest)
}
