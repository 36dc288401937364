package server

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/naive"
	"repro/transformers"
)

// cpElems copies an element slice: AddDataset and Append take ownership of
// their argument, and the naive references here must keep the originals.
func cpElems(es []transformers.Element) []transformers.Element {
	return append([]transformers.Element(nil), es...)
}

// pairsMatch is multiset equality on pair sets (naive.Equal sorts in place,
// so both sides are copied first).
func pairsMatch(got, want []transformers.Pair) bool {
	return naive.Equal(cpElemsPairs(got), cpElemsPairs(want))
}

func cpElemsPairs(ps []transformers.Pair) []transformers.Pair {
	return append([]transformers.Pair(nil), ps...)
}

// naiveRef is the full-rebuild reference: the naive join of the combined
// (base + delta) inputs, with the §VIII distance reduction applied the same
// way the engines apply it (both sides expanded by d/2).
func naiveRef(as, bs []transformers.Element, d float64) []transformers.Pair {
	if d > 0 {
		expand := func(es []transformers.Element) []transformers.Element {
			out := make([]transformers.Element, len(es))
			for i, e := range es {
				out[i] = transformers.Element{ID: e.ID, Box: e.Box.Expand(d / 2)}
			}
			return out
		}
		as, bs = expand(as), expand(bs)
	}
	return naive.Join(as, bs)
}

func datasetInfo(t *testing.T, svc *Service, name string) DatasetInfo {
	t.Helper()
	for _, ds := range svc.Stats().Datasets {
		if ds.Name == name {
			return ds
		}
	}
	t.Fatalf("dataset %q not in /stats", name)
	return DatasetInfo{}
}

// TestAppendVisibleWithoutRebuild: appended elements join immediately — no
// index rebuild, no version bump — and the composed result is the
// full-rebuild pair set.
func TestAppendVisibleWithoutRebuild(t *testing.T) {
	svc := NewService(Config{Workers: 2})
	baseA := transformers.GenerateUniform(800, 301)
	baseB := transformers.GenerateUniform(800, 302)
	extra := transformers.GenerateDenseCluster(200, 303)
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	addDataset(t, svc, "a", cpElems(baseA))
	addDataset(t, svc, "b", cpElems(baseB))

	pre, err := svc.Join(context.Background(), "a", "b", JoinParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !pairsMatch(pre.Pairs, naiveRef(baseA, baseB, 0)) {
		t.Fatal("base join does not match the naive reference")
	}
	if pre.Summary.Delta != nil {
		t.Fatalf("empty-delta join reported a delta summary: %+v", pre.Summary.Delta)
	}
	builds := svc.Stats().Catalog.Builds
	verBefore := datasetInfo(t, svc, "a").Version

	info, err := svc.Append(context.Background(), "a", cpElems(extra))
	if err != nil {
		t.Fatal(err)
	}
	if info.Appended != 200 || info.DeltaElements != 200 || info.DeltaEpoch != 1 {
		t.Fatalf("append info = %+v, want 200 appended at epoch 1", info)
	}
	if info.MergeTriggered {
		t.Fatal("200-element delta must not trip the default merge threshold")
	}
	if info.Version != verBefore {
		t.Fatalf("append bumped the version: %d -> %d", verBefore, info.Version)
	}

	out, err := svc.Join(context.Background(), "a", "b", JoinParams{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("post-append join served the pre-append cache entry")
	}
	if !pairsMatch(out.Pairs, naiveRef(append(cpElems(baseA), extra...), baseB, 0)) {
		t.Fatal("delta-composed join does not match the full-rebuild reference")
	}
	if got := svc.Stats().Catalog.Builds; got != builds {
		t.Fatalf("append caused %d rebuilds", got-builds)
	}
	d := out.Summary.Delta
	if d == nil || d.ElementsA != 200 || d.ElementsB != 0 || d.SubJoins == 0 {
		t.Fatalf("delta summary = %+v, want 200 A-side elements over >0 sub-joins", d)
	}
	st := svc.Stats()
	if st.Appends != 1 || st.AppendedElements != 200 || st.DeltaJoins != 1 {
		t.Fatalf("ingest counters = appends %d / elements %d / delta joins %d, want 1/200/1",
			st.Appends, st.AppendedElements, st.DeltaJoins)
	}
	if st.Catalog.DeltaElements != 200 || st.Catalog.Appends != 1 {
		t.Fatalf("catalog delta counters = %+v", st.Catalog)
	}
	ds := datasetInfo(t, svc, "a")
	if ds.DeltaElements != 200 || ds.DeltaEpoch != 1 || ds.Version != verBefore {
		t.Fatalf("dataset info = %+v, want 200 delta elements at epoch 1, version %d", ds, verBefore)
	}
}

// TestAppendInvalidatesCache: the cache must never serve a pre-append result
// after an append — the DeltaEpoch key component turns the append into an
// immediate miss — while the post-append result caches normally.
func TestAppendInvalidatesCache(t *testing.T) {
	svc := NewService(Config{Workers: 2})
	baseA := transformers.GenerateUniform(400, 304)
	baseB := transformers.GenerateUniform(400, 305)
	extra := transformers.GenerateUniform(60, 306)
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	addDataset(t, svc, "a", cpElems(baseA))
	addDataset(t, svc, "b", cpElems(baseB))

	if out, err := svc.Join(context.Background(), "a", "b", JoinParams{}); err != nil || out.Cached {
		t.Fatalf("first join: err=%v cached=%v", err, out != nil && out.Cached)
	}
	if out, err := svc.Join(context.Background(), "a", "b", JoinParams{}); err != nil || !out.Cached {
		t.Fatalf("repeat join before append: err=%v cached=%v, want a hit", err, out != nil && out.Cached)
	}
	if _, err := svc.Append(context.Background(), "b", cpElems(extra)); err != nil {
		t.Fatal(err)
	}
	out, err := svc.Join(context.Background(), "a", "b", JoinParams{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("join after append served the stale pre-append entry")
	}
	want := naiveRef(baseA, append(cpElems(baseB), extra...), 0)
	if !pairsMatch(out.Pairs, want) {
		t.Fatal("post-append join does not match the full-rebuild reference")
	}
	hit, err := svc.Join(context.Background(), "a", "b", JoinParams{})
	if err != nil || !hit.Cached {
		t.Fatalf("repeat join after append: err=%v cached=%v, want a hit at the new epoch", err, hit != nil && hit.Cached)
	}
	if hit.Summary.Delta == nil || hit.Summary.Delta.ElementsB != 60 {
		t.Fatalf("cached summary lost the delta record: %+v", hit.Summary.Delta)
	}
	if !pairsMatch(hit.Pairs, want) {
		t.Fatal("cached post-append pairs differ from the executed ones")
	}
}

// TestAppendRacingStreamingJoin: an append landing while a streaming join is
// in flight must not tear the stream — the join serves exactly its pinned
// pre-append snapshot, and the next join sees the post-append state.
func TestAppendRacingStreamingJoin(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := NewService(Config{Workers: 2})
	baseA := transformers.GenerateUniform(600, 311)
	baseB := transformers.GenerateUniform(600, 312)
	extra := transformers.GenerateUniform(150, 313)
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	addDataset(t, svc, "b", cpElems(baseB))
	pre := naiveRef(baseA, baseB, 0)
	post := naiveRef(append(cpElems(baseA), extra...), baseB, 0)

	// Deterministic interleaving: fire the append from inside the first emit,
	// so it provably lands mid-join. The join pinned its delta view before
	// execution, so it must deliver exactly the pre-append pair set.
	addDataset(t, svc, "a", cpElems(baseA))
	var once sync.Once
	var appendErr error
	var got []transformers.Pair
	if _, err := svc.JoinStream(context.Background(), "a", "b", JoinParams{NoCache: true}, func(p transformers.Pair) error {
		once.Do(func() { _, appendErr = svc.Append(context.Background(), "a", cpElems(extra)) })
		got = append(got, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if appendErr != nil {
		t.Fatalf("mid-join append: %v", appendErr)
	}
	if !pairsMatch(got, pre) {
		t.Fatalf("mid-append stream delivered %d pairs; want the pre-append snapshot (%d)", len(got), len(pre))
	}
	out, err := svc.Join(context.Background(), "a", "b", JoinParams{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pairsMatch(out.Pairs, post) {
		t.Fatal("join after the racing append does not see the appended elements")
	}

	// Nondeterministic interleaving under -race: the stream must deliver the
	// pre- or post-append set exactly, never a torn mixture.
	for round := 0; round < 3; round++ {
		addDataset(t, svc, "a", cpElems(baseA)) // fresh generation, empty delta
		var wg sync.WaitGroup
		var streamed []transformers.Pair
		var joinErr error
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, joinErr = svc.JoinStream(context.Background(), "a", "b", JoinParams{NoCache: true},
				func(p transformers.Pair) error { streamed = append(streamed, p); return nil })
		}()
		if _, err := svc.Append(context.Background(), "a", cpElems(extra)); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if joinErr != nil {
			t.Fatalf("round %d: %v", round, joinErr)
		}
		if !pairsMatch(streamed, pre) && !pairsMatch(streamed, post) {
			t.Fatalf("round %d: torn stream: %d pairs, want pre (%d) or post (%d) exactly",
				round, len(streamed), len(pre), len(post))
		}
	}
	waitPoolDrained(t, svc)
	svc.Quiesce()
	checkGoroutines(t, before)
}

// TestDeltaComposedMultisetProperty: across adversarial generator pairs,
// predicates and engines, a delta-composed join is multiset-equal to the
// naive full-rebuild reference of the combined inputs.
func TestDeltaComposedMultisetProperty(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	gens := []struct {
		name string
		fn   func(n int, seed int64) []transformers.Element
	}{
		{"uniform", transformers.GenerateUniform},
		{"dense_cluster", transformers.GenerateDenseCluster},
		{"uniform_cluster", transformers.GenerateUniformCluster},
		{"massive_cluster", transformers.GenerateMassiveCluster},
		{"axons", transformers.GenerateAxons},
		{"dendrites", transformers.GenerateDendrites},
	}
	// Merging disabled: the rounds pin delta-composed execution, not the
	// merged steady state (merge correctness has its own test).
	svc := NewService(Config{Workers: 2, DeltaMaxElements: -1})
	algos := []string{engine.Transformers, engine.InMem}

	for round := 0; round < 6; round++ {
		ga, gb := gens[rng.Intn(len(gens))], gens[rng.Intn(len(gens))]
		gda, gdb := gens[rng.Intn(len(gens))], gens[rng.Intn(len(gens))]
		baseA := ga.fn(100+rng.Intn(300), rng.Int63())
		baseB := gb.fn(100+rng.Intn(300), rng.Int63())
		deltaA := gda.fn(1+rng.Intn(150), rng.Int63())
		deltaB := []transformers.Element(nil)
		if rng.Intn(2) == 0 { // delta on both sides exercises delta×delta
			deltaB = gdb.fn(1+rng.Intn(150), rng.Int63())
		}
		for i := range deltaA {
			deltaA[i].ID += 1 << 20
		}
		for i := range deltaB {
			deltaB[i].ID += 1 << 21
		}
		var distance float64
		if rng.Intn(2) == 0 {
			distance = 1 + rng.Float64()*20 // world is [0,1000]^3
		}
		desc := fmt.Sprintf("round %d: A=%s+%s(%d+%d) B=%s+%s(%d+%d) d=%.2f",
			round, ga.name, gda.name, len(baseA), len(deltaA),
			gb.name, gdb.name, len(baseB), len(deltaB), distance)

		addDataset(t, svc, "pa", cpElems(baseA))
		addDataset(t, svc, "pb", cpElems(baseB))
		if _, err := svc.Append(context.Background(), "pa", cpElems(deltaA)); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
		if len(deltaB) > 0 {
			if _, err := svc.Append(context.Background(), "pb", cpElems(deltaB)); err != nil {
				t.Fatalf("%s: %v", desc, err)
			}
		}
		want := naiveRef(append(cpElems(baseA), deltaA...), append(cpElems(baseB), deltaB...), distance)
		for _, algo := range algos {
			out, err := svc.Join(context.Background(), "pa", "pb",
				JoinParams{Algorithm: algo, Distance: distance, NoCache: true})
			if err != nil {
				t.Fatalf("%s [%s]: %v", desc, algo, err)
			}
			if !pairsMatch(out.Pairs, want) {
				t.Fatalf("%s [%s]: %d pairs, full-rebuild reference has %d (seed %d)",
					desc, algo, len(out.Pairs), len(want), seed)
			}
			if out.Summary.Delta == nil {
				t.Fatalf("%s [%s]: no delta summary on a non-empty delta", desc, algo)
			}
			if algo == engine.Transformers && out.Summary.Delta.SubJoins == 0 {
				t.Fatalf("%s: prebuilt path composed no sub-joins", desc)
			}
			if algo == engine.InMem && out.Summary.Delta.SubJoins != 0 {
				t.Fatalf("%s: snapshot path reported sub-joins", desc)
			}
		}
	}
}

// TestMergeCompactsDelta: crossing the threshold triggers exactly one
// background merge — version bumped, delta drained, results unchanged, and
// the epoch carried so pre-merge cache entries die with the version.
func TestMergeCompactsDelta(t *testing.T) {
	svc := NewService(Config{Workers: 2, DeltaMaxElements: 100})
	baseA := transformers.GenerateUniform(400, 321)
	baseB := transformers.GenerateUniform(400, 322)
	extra := transformers.GenerateUniform(100, 323)
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	addDataset(t, svc, "a", cpElems(baseA))
	addDataset(t, svc, "b", cpElems(baseB))
	verBefore := datasetInfo(t, svc, "a").Version

	if info, err := svc.Append(context.Background(), "a", cpElems(extra[:40])); err != nil || info.MergeTriggered {
		t.Fatalf("below-threshold append: err=%v triggered=%v", err, info.MergeTriggered)
	}
	info, err := svc.Append(context.Background(), "a", cpElems(extra[40:]))
	if err != nil {
		t.Fatal(err)
	}
	if !info.MergeTriggered {
		t.Fatalf("append to %d delta elements did not trigger the merge", info.DeltaElements)
	}
	svc.Quiesce()

	cat := svc.Stats().Catalog
	if cat.Merges != 1 || cat.MergeFailures != 0 || cat.DeltaElements != 0 {
		t.Fatalf("catalog after merge = %+v, want 1 clean merge and an empty delta", cat)
	}
	ds := datasetInfo(t, svc, "a")
	if ds.Version != verBefore+1 || ds.DeltaElements != 0 || ds.DeltaEpoch != 2 {
		t.Fatalf("dataset after merge = %+v, want version %d, empty delta, epoch 2", ds, verBefore+1)
	}
	out, err := svc.Join(context.Background(), "a", "b", JoinParams{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Summary.Delta != nil {
		t.Fatalf("merged dataset still reports a delta: %+v", out.Summary.Delta)
	}
	if !pairsMatch(out.Pairs, naiveRef(append(cpElems(baseA), extra...), baseB, 0)) {
		t.Fatal("post-merge join does not match the full-rebuild reference")
	}
	if hit, err := svc.Join(context.Background(), "a", "b", JoinParams{}); err != nil || !hit.Cached {
		t.Fatalf("repeat post-merge join: err=%v cached=%v", err, hit != nil && hit.Cached)
	}
	if svc.Health().Status != "ok" {
		t.Fatalf("health = %+v", svc.Health())
	}
}

// TestMergeFailureRetainsDelta: a merge whose build keeps failing leaves the
// delta (and the last-good base) serving correct composed joins, reports the
// degradation, and a later retrigger merges cleanly once the store heals.
func TestMergeFailureRetainsDelta(t *testing.T) {
	// Two clean builds (the dataset registrations), then six failing ones:
	// merge #1 exhausts its four fastRetry attempts and fails; merge #2
	// fails twice and succeeds on its third attempt.
	sc := faultinject.New(faultinject.Fault{Op: faultinject.OpBuildFail, After: 2, Times: 6})
	svc := NewService(Config{Workers: 2, DeltaMaxElements: 50, StoreFactory: sc.StoreFactory, Retry: fastRetry})
	baseA := transformers.GenerateUniform(400, 331)
	baseB := transformers.GenerateUniform(400, 332)
	extra := transformers.GenerateUniform(50, 333)
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	addDataset(t, svc, "a", cpElems(baseA))
	addDataset(t, svc, "b", cpElems(baseB))
	verBefore := datasetInfo(t, svc, "a").Version

	info, err := svc.Append(context.Background(), "a", cpElems(extra))
	if err != nil {
		t.Fatal(err)
	}
	if !info.MergeTriggered {
		t.Fatal("threshold append did not trigger the merge")
	}
	svc.Quiesce()

	cat := svc.Stats().Catalog
	if cat.MergeFailures != 1 || cat.Merges != 0 {
		t.Fatalf("catalog after failed merge = %+v, want 1 failure, 0 merges", cat)
	}
	ds := datasetInfo(t, svc, "a")
	if ds.Version != verBefore || ds.DeltaElements != 50 {
		t.Fatalf("failed merge must retain version %d and the 50-element delta, got %+v", verBefore, ds)
	}
	if h := svc.Health(); h.Status != "degraded" || !strings.Contains(strings.Join(h.Reasons, " "), "delta merge failing") {
		t.Fatalf("health after failed merge = %+v", h)
	}
	want := naiveRef(append(cpElems(baseA), extra...), baseB, 0)
	out, err := svc.Join(context.Background(), "a", "b", JoinParams{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pairsMatch(out.Pairs, want) || out.Summary.Delta == nil {
		t.Fatal("composed join over the retained delta is wrong")
	}

	// Retrigger: one more element keeps the delta over threshold; the store
	// has two faults left, so the merge succeeds on its third attempt.
	one := transformers.GenerateUniform(1, 334)
	one[0].ID += 1 << 21
	info, err = svc.Append(context.Background(), "a", one)
	if err != nil || !info.MergeTriggered {
		t.Fatalf("retrigger append: err=%v triggered=%v", err, info.MergeTriggered)
	}
	svc.Quiesce()
	cat = svc.Stats().Catalog
	if cat.Merges != 1 || cat.DeltaElements != 0 {
		t.Fatalf("catalog after healed merge = %+v, want 1 merge and an empty delta", cat)
	}
	if ds := datasetInfo(t, svc, "a"); ds.Version != verBefore+1 || ds.DeltaElements != 0 {
		t.Fatalf("dataset after healed merge = %+v", ds)
	}
	if h := svc.Health(); h.Status != "ok" {
		t.Fatalf("health after healed merge = %+v", h)
	}
	want = naiveRef(append(append(cpElems(baseA), extra...), one[0]), baseB, 0)
	out, err = svc.Join(context.Background(), "a", "b", JoinParams{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !pairsMatch(out.Pairs, want) {
		t.Fatal("post-merge join does not match the full-rebuild reference")
	}
}

// TestChaosAppendDuringJoin: randomized append batches race collected and
// streaming joins (sometimes with a store whose merge builds fail). Every
// join must deliver the pair set of SOME append prefix — snapshot isolation,
// never a torn view — and after quiescing, the final join sees every append.
func TestChaosAppendDuringJoin(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	before := runtime.NumGoroutine()

	baseA := transformers.GenerateUniform(300, 341)
	baseB := transformers.GenerateUniform(300, 342)
	const nBatches = 4
	batches := make([][]transformers.Element, nBatches)
	for i := range batches {
		batches[i] = transformers.GenerateDenseCluster(40, int64(343+i))
		for j := range batches[i] {
			batches[i][j].ID += uint64(i+1) << 20
		}
	}
	// refs[k] is the full-rebuild reference after k batches landed: the only
	// legal join results, whatever the interleaving.
	refs := make([][]transformers.Pair, nBatches+1)
	combined := cpElems(baseA)
	refs[0] = naiveRef(combined, baseB, 0)
	for i, batch := range batches {
		combined = append(combined, batch...)
		refs[i+1] = naiveRef(combined, baseB, 0)
	}
	matchesSomePrefix := func(got []transformers.Pair) int {
		for k, ref := range refs {
			if pairsMatch(got, ref) {
				return k
			}
		}
		return -1
	}

	for round := 0; round < 3; round++ {
		cfg := Config{Workers: 2, DeltaMaxElements: 60, Retry: fastRetry}
		faulty := rng.Intn(2) == 1
		if faulty {
			// Registrations build clean; merge builds fail a random burst.
			sc := faultinject.New(faultinject.Fault{Op: faultinject.OpBuildFail, After: 2, Times: 3 + rng.Int63n(4)})
			cfg.StoreFactory = sc.StoreFactory
		}
		svc := NewService(cfg)
		addDataset(t, svc, "a", cpElems(baseA))
		addDataset(t, svc, "b", cpElems(baseB))

		jitter := make([]time.Duration, nBatches)
		for i := range jitter {
			jitter[i] = time.Duration(rng.Intn(3)) * time.Millisecond
		}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, batch := range batches {
				if _, err := svc.Append(context.Background(), "a", cpElems(batch)); err != nil {
					t.Errorf("round %d: append %d: %v", round, i, err)
					return
				}
				time.Sleep(jitter[i])
			}
		}()
		const joiners = 3
		results := make([][]transformers.Pair, joiners)
		errs := make([]error, joiners)
		for j := 0; j < joiners; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				for it := 0; it < 3; it++ {
					if j == 0 { // one joiner streams, the rest collect
						var got []transformers.Pair
						_, err := svc.JoinStream(context.Background(), "a", "b", JoinParams{NoCache: true},
							func(p transformers.Pair) error { got = append(got, p); return nil })
						results[j], errs[j] = got, err
					} else {
						out, err := svc.Join(context.Background(), "a", "b", JoinParams{NoCache: true})
						if err == nil {
							results[j] = out.Pairs
						}
						errs[j] = err
					}
					if errs[j] != nil {
						return
					}
					if matchesSomePrefix(results[j]) < 0 {
						return // recorded below after the barrier
					}
				}
			}(j)
		}
		wg.Wait()
		for j := 0; j < joiners; j++ {
			if errs[j] != nil {
				t.Fatalf("round %d (faulty=%v, seed %d): joiner %d: %v", round, faulty, seed, j, errs[j])
			}
			if k := matchesSomePrefix(results[j]); k < 0 {
				t.Fatalf("round %d (faulty=%v, seed %d): joiner %d saw a torn view (%d pairs)",
					round, faulty, seed, j, len(results[j]))
			}
		}
		svc.Quiesce()
		waitPoolDrained(t, svc)
		// All appends landed: the final join must be the full reference,
		// merged or not (a failing merge retains the delta, never drops it).
		out, err := svc.Join(context.Background(), "a", "b", JoinParams{NoCache: true})
		if err != nil {
			t.Fatalf("round %d: final join: %v", round, err)
		}
		if !pairsMatch(out.Pairs, refs[nBatches]) {
			t.Fatalf("round %d (faulty=%v, seed %d): final join lost appends: %d pairs, want %d",
				round, faulty, seed, len(out.Pairs), len(refs[nBatches]))
		}
		if faulty {
			if cat := svc.Stats().Catalog; cat.MergeFailures == 0 && cat.Merges == 0 {
				t.Logf("round %d: faulty store never saw a merge attempt (seed %d)", round, seed)
			}
		}
		svc.Quiesce()
	}
	checkGoroutines(t, before)
}

// TestHTTPDistanceValidation pins the satellite bugfix: non-finite and
// non-positive distances answer 400 at the handler — NaN used to slip past
// the `<= 0` check and die deep in planning.
func TestHTTPDistanceValidation(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	addDataset(t, svc, "a", transformers.GenerateUniform(50, 351))

	cases := []struct {
		name string
		body string
	}{
		{"negative", `{"a":"a","b":"a","distance":-1}`},
		{"zero", `{"a":"a","b":"a","distance":0}`},
		{"nan", `{"a":"a","b":"a","distance":NaN}`},
		{"plus_inf_literal", `{"a":"a","b":"a","distance":Infinity}`},
		{"minus_inf_literal", `{"a":"a","b":"a","distance":-Infinity}`},
		{"plus_inf_overflow", `{"a":"a","b":"a","distance":1e999}`},
		{"minus_inf_overflow", `{"a":"a","b":"a","distance":-1e999}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			code, doc := postJSON(t, ts.URL+"/join/distance", tc.body)
			if code != http.StatusBadRequest {
				t.Fatalf("distance %s: status %d (%v), want 400", tc.name, code, doc)
			}
		})
	}
	// The service layer rejects what a non-HTTP caller could still pass.
	for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := svc.Join(context.Background(), "a", "a", JoinParams{Distance: d}); err == nil {
			t.Fatalf("service accepted distance %v", d)
		}
	}
}

// TestHTTPAppendEndpoint drives the ingest surface end to end over HTTP:
// append lands elements, joins see them, the error paths answer typed
// statuses, and the delta gauges export.
func TestHTTPAppendEndpoint(t *testing.T) {
	ts, svc := newTestServer(t, Config{DeltaMaxElements: -1})
	if code, doc := postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"uniform","n":500,"seed":361}}`); code != http.StatusCreated {
		t.Fatalf("dataset a: %d %v", code, doc)
	}
	if code, doc := postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":500,"seed":362}}`); code != http.StatusCreated {
		t.Fatalf("dataset b: %d %v", code, doc)
	}
	code, doc := postJSON(t, ts.URL+"/join", `{"a":"a","b":"b"}`)
	if code != http.StatusOK {
		t.Fatalf("base join: %d %v", code, doc)
	}
	baseResults := doc["summary"].(map[string]any)["results"].(float64)

	// A world-spanning box pairs with every element of b.
	code, doc = postJSON(t, ts.URL+"/datasets/a/append",
		`{"elements":[{"id":9000001,"box":{"lo":[-1,-1,-1],"hi":[1001,1001,1001]}}]}`)
	if code != http.StatusOK {
		t.Fatalf("append: %d %v", code, doc)
	}
	if doc["appended"].(float64) != 1 || doc["delta_elements"].(float64) != 1 || doc["delta_epoch"].(float64) != 1 {
		t.Fatalf("append response = %v", doc)
	}
	if ds := datasetInfo(t, svc, "a"); ds.DeltaElements != 1 || ds.DeltaEpoch != 1 {
		t.Fatalf("dataset info after HTTP append = %+v", ds)
	}

	code, doc = postJSON(t, ts.URL+"/join", `{"a":"a","b":"b"}`)
	if code != http.StatusOK {
		t.Fatalf("post-append join: %d %v", code, doc)
	}
	if got := doc["summary"].(map[string]any)["results"].(float64); got != baseResults+500 {
		t.Fatalf("post-append results = %v, want %v", got, baseResults+500)
	}
	delta, ok := doc["summary"].(map[string]any)["delta"].(map[string]any)
	if !ok || delta["elements_a"].(float64) != 1 {
		t.Fatalf("summary delta = %v", doc["summary"])
	}

	// Typed errors: unknown dataset 404, empty and invalid payloads 400.
	if code, _ := postJSON(t, ts.URL+"/datasets/nope/append", `{"elements":[{"id":1,"box":{"lo":[0,0,0],"hi":[1,1,1]}}]}`); code != http.StatusNotFound {
		t.Fatalf("append to unknown dataset: %d, want 404", code)
	}
	if code, _ := postJSON(t, ts.URL+"/datasets/a/append", `{"elements":[]}`); code != http.StatusBadRequest {
		t.Fatalf("empty append: %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/datasets/a/append", `{"elements":[{"id":1,"box":{"lo":[2,2,2],"hi":[1,1,1]}}]}`); code != http.StatusBadRequest {
		t.Fatalf("invalid-box append: %d, want 400", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	metrics, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, gauge := range []string{"spatialjoin_delta_elements", "spatialjoin_delta_merges_total"} {
		if !strings.Contains(string(metrics), gauge) {
			t.Fatalf("/metrics lacks %s", gauge)
		}
	}
	if !strings.Contains(string(metrics), "spatialjoin_delta_elements 1") {
		t.Fatalf("delta gauge does not report the buffered element:\n%s", metrics)
	}
}
