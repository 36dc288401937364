package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/internal/obs"
	"repro/transformers"
)

// overlapElems draws n uniformly spread boxes grown enough that two draws of
// a few hundred share a few hundred intersecting pairs, with IDs from base up
// so every element a test ever adds to one side is distinguishable.
func overlapElems(n int, seed int64, base uint64) []transformers.Element {
	elems := transformers.GenerateUniform(n, seed)
	for i := range elems {
		elems[i].ID = base + uint64(i)
		elems[i].Box = elems[i].Box.Expand(30)
	}
	return elems
}

// TestPartitionLifecycleModel drives seeded random sequences of add, replace,
// append and merge interleaved with inmem and auto joins — distance 0 and > 0,
// cached and no_cache, collected and streamed, some streams cancelled
// midway — against a trivial model of the current elements: every
// completed answer is multiset-equal to naive over the model, so a partition
// or cached result of overwritten state is never served once the write has
// returned, and the catalog never holds more partitions or the cache more
// results than there are distinct keys of the live state.
func TestPartitionLifecycleModel(t *testing.T) {
	seed := chaosSeed(t)
	for seq := 0; seq < 3; seq++ {
		rng := rand.New(rand.NewSource(seed + int64(seq)))
		// Automatic merges off: the sequence merges explicitly, so the model
		// knows the state every join ran against.
		svc := NewService(Config{Workers: 2, DeltaMaxElements: -1})
		ctx := context.Background()
		model := map[string][]transformers.Element{}
		nextID := uint64(1)
		draw := func(n int) []transformers.Element {
			es := overlapElems(n, rng.Int63(), nextID)
			nextID += uint64(n)
			return es
		}
		for _, name := range []string{"a", "b"} {
			model[name] = draw(200 + rng.Intn(200))
			addDataset(t, svc, name, cpElems(model[name]))
		}
		// liveKeys are the join shapes asked since the last write: what may
		// legitimately be resident now.
		liveKeys := map[string]bool{}
		for step := 0; step < 60; step++ {
			desc := fmt.Sprintf("seed %d seq %d step %d", seed, seq, step)
			name := []string{"a", "b"}[rng.Intn(2)]
			switch op := rng.Intn(10); {
			case op == 0:
				model[name] = draw(150 + rng.Intn(250))
				addDataset(t, svc, name, cpElems(model[name]))
				clear(liveKeys)
			case op <= 2:
				extra := draw(1 + rng.Intn(40))
				if _, err := svc.Append(ctx, name, cpElems(extra)); err != nil {
					t.Fatalf("%s: append: %v", desc, err)
				}
				model[name] = append(model[name], extra...)
				clear(liveKeys)
			case op == 3:
				n, err := svc.Catalog().MergeDelta(ctx, name)
				if err != nil {
					t.Fatalf("%s: merge: %v", desc, err)
				}
				if n > 0 {
					clear(liveKeys)
				}
			default:
				p := JoinParams{
					Algorithm: []string{engine.InMem, AlgorithmAuto, engine.Transformers}[rng.Intn(3)],
					Distance:  []float64{0, 0, 12}[rng.Intn(3)],
					NoCache:   rng.Intn(2) == 0,
				}
				if p.Algorithm == engine.Transformers {
					// A distance nobody asked for before: served by a view of
					// the dataset's one index, so nothing is built.
					p.Distance = 1 + 20*rng.Float64()
				}
				builds := svc.Stats().Catalog.Builds
				desc = fmt.Sprintf("%s join %+v", desc, p)
				liveKeys[fmt.Sprint(p.Distance)] = true
				want := naiveRef(model["a"], model["b"], p.Distance)
				var got []transformers.Pair
				switch rng.Intn(3) {
				case 0:
					out, err := svc.Join(ctx, "a", "b", p)
					if err != nil {
						t.Fatalf("%s: %v", desc, err)
					}
					got = out.Pairs
				case 1:
					_, err := svc.JoinStream(ctx, "a", "b", p, func(pr transformers.Pair) error {
						got = append(got, pr)
						return nil
					})
					if err != nil {
						t.Fatalf("%s streamed: %v", desc, err)
					}
				case 2:
					// The request is cancelled mid-stream: the join must fail
					// with the context's error and leave nothing behind that
					// a later join could trip over.
					cctx, cancel := context.WithCancel(ctx)
					stopAt, n := len(want)/2, 0
					_, err := svc.JoinStream(cctx, "a", "b", p, func(transformers.Pair) error {
						if n++; n > stopAt {
							cancel()
						}
						return cctx.Err()
					})
					cancel()
					if len(want) > 0 && !errors.Is(err, context.Canceled) {
						t.Fatalf("%s cancelled mid-stream: err = %v", desc, err)
					}
					continue
				}
				if !pairsMatch(got, want) {
					t.Fatalf("%s: %d pairs, naive over the model has %d", desc, len(got), len(want))
				}
				if now := svc.Stats().Catalog.Builds; p.Algorithm == engine.Transformers && now != builds {
					t.Fatalf("%s: builds moved %d -> %d, want them to move on a Put or a merge only", desc, builds, now)
				}
			}
			st := svc.Stats()
			// Per distance at most one partition (inmem only) and two cached
			// results (auto may resolve to another engine than inmem).
			if st.Catalog.Partitions > len(liveKeys) || st.Cache.Entries > 2*len(liveKeys) {
				t.Fatalf("%s: %d partitions and %d cached results resident for %d live distances",
					desc, st.Catalog.Partitions, st.Cache.Entries, len(liveKeys))
			}
		}
		waitPoolDrained(t, svc)
	}
}

// TestPartitionNeverOutlivesAWrite is the deterministic core of the model
// test: a resident partition answers repeats, and the join after an append,
// a merge or a replacement sees the new state.
func TestPartitionNeverOutlivesAWrite(t *testing.T) {
	svc := NewService(Config{DeltaMaxElements: -1})
	ctx := context.Background()
	a, b := overlapElems(300, 1, 1), overlapElems(300, 2, 10_000)
	addDataset(t, svc, "a", cpElems(a))
	addDataset(t, svc, "b", cpElems(b))
	p := JoinParams{Algorithm: engine.InMem, NoCache: true}
	check := func(when string) {
		t.Helper()
		out, err := svc.Join(ctx, "a", "b", p)
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if !pairsMatch(out.Pairs, naiveRef(a, b, 0)) {
			t.Fatalf("%s: answer does not match naive over the current elements", when)
		}
	}
	check("first join")
	check("repeat")
	if st := svc.Stats().Catalog; st.Partitions != 1 || st.PartitionBytes <= 0 {
		t.Fatalf("after two no_cache joins: %+v, want one resident partition", st)
	}

	extra := overlapElems(25, 3, 20_000)
	if _, err := svc.Append(ctx, "a", cpElems(extra)); err != nil {
		t.Fatal(err)
	}
	if n := svc.Stats().Catalog.Partitions; n != 0 {
		t.Fatalf("append left %d partitions of the overwritten state", n)
	}
	a = append(a, extra...)
	check("after append")

	if _, err := svc.Catalog().MergeDelta(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if n := svc.Stats().Catalog.Partitions; n != 0 {
		t.Fatalf("merge left %d partitions of the overwritten state", n)
	}
	check("after merge")

	b = overlapElems(280, 4, 30_000)
	addDataset(t, svc, "b", cpElems(b))
	if n := svc.Stats().Catalog.Partitions; n != 0 {
		t.Fatalf("replacement left %d partitions of the overwritten state", n)
	}
	check("after replacement")
}

// TestPartitionKeyedByCatalogState: two services in one process hold
// different data under the same names and versions; each answers from its
// own.
func TestPartitionKeyedByCatalogState(t *testing.T) {
	ctx := context.Background()
	p := JoinParams{Algorithm: engine.InMem, NoCache: true}
	var svcs [2]*Service
	var as, bs [2][]transformers.Element
	for i := range svcs {
		svcs[i] = NewService(Config{})
		as[i], bs[i] = overlapElems(250, int64(10+i), 1), overlapElems(250, int64(20+i), 10_000)
		addDataset(t, svcs[i], "a", cpElems(as[i]))
		addDataset(t, svcs[i], "b", cpElems(bs[i]))
	}
	for round := 0; round < 2; round++ {
		for i, svc := range svcs {
			out, err := svc.Join(ctx, "a", "b", p)
			if err != nil {
				t.Fatal(err)
			}
			if !pairsMatch(out.Pairs, naiveRef(as[i], bs[i], 0)) {
				t.Fatalf("round %d: service %d answered from another catalog's partition", round, i)
			}
		}
	}
}

// TestPartitionSingleFlight: N concurrent first joins of one key perform
// exactly one partition build and count as one miss.
func TestPartitionSingleFlight(t *testing.T) {
	const n = 8
	svc := NewService(Config{Workers: n})
	a, b := overlapElems(2000, 5, 1), overlapElems(2000, 6, 10_000)
	want := naiveRef(a, b, 0)
	addDataset(t, svc, "a", a)
	addDataset(t, svc, "b", b)
	before := svc.Stats().Catalog

	var wg sync.WaitGroup
	outs := make([]*JoinOutcome, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = svc.Join(context.Background(), "a", "b", JoinParams{Algorithm: engine.InMem, NoCache: true})
		}(i)
	}
	wg.Wait()
	paid := 0
	for i := range outs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !pairsMatch(outs[i].Pairs, want) {
			t.Fatalf("join %d: wrong answer off the shared partition", i)
		}
		if outs[i].Summary.BuildMS > 0 {
			paid++
		}
	}
	after := svc.Stats().Catalog
	if got := after.Builds - before.Builds; got != 1 {
		t.Fatalf("%d concurrent first joins performed %d builds, want 1", n, got)
	}
	if acq, hits := after.Acquires-before.Acquires, after.IndexHits-before.IndexHits; acq != n || hits != n-1 {
		t.Fatalf("acquires/index_hits moved by %d/%d, want %d/%d", acq, hits, n, n-1)
	}
	if paid != 1 {
		t.Fatalf("%d joins report a build in build_ms, want the one that built", paid)
	}
}

// TestPartitionRetainedBesideStoredResult: a join's partition stays resident
// whether or not its result was stored — the cache answers the join's
// repeats, the partition a no_cache one's — and a write drops both, for every
// dataset it changed.
func TestPartitionRetainedBesideStoredResult(t *testing.T) {
	ctx := context.Background()
	resident := func(svc *Service) (partitions, results int) {
		st := svc.Stats()
		return st.Catalog.Partitions, st.Cache.Entries
	}
	svc := NewService(Config{DeltaMaxElements: -1})
	addDataset(t, svc, "a", overlapElems(300, 7, 1))
	addDataset(t, svc, "b", overlapElems(300, 8, 10_000))
	p := JoinParams{Algorithm: engine.InMem}

	if _, err := svc.Join(ctx, "a", "b", p); err != nil {
		t.Fatal(err)
	}
	if parts, results := resident(svc); parts != 1 || results != 1 {
		t.Fatalf("after a stored join: %d partitions, %d results; want 1, 1", parts, results)
	}
	if out, err := svc.Join(ctx, "a", "b", p); err != nil || !out.Cached {
		t.Fatalf("repeat of a stored join: cached=%v err=%v", out != nil && out.Cached, err)
	}
	if _, err := svc.JoinStream(ctx, "a", "b", JoinParams{Algorithm: engine.InMem, Distance: 5}, func(transformers.Pair) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if parts, results := resident(svc); parts != 2 || results != 2 {
		t.Fatalf("after a stored streamed join: %d partitions, %d results; want 2, 2", parts, results)
	}
	builds := svc.Stats().Catalog.Builds
	if _, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: engine.InMem, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if parts, results := resident(svc); parts != 2 || results != 2 || svc.Stats().Catalog.Builds != builds {
		t.Fatalf("after a no_cache join: %d partitions, %d results, builds %d -> %d; want 2, 2 and the stored join's partition",
			parts, results, builds, svc.Stats().Catalog.Builds)
	}

	// The three writes each drop every partition and result of the dataset
	// they changed.
	for _, write := range []struct {
		name string
		do   func() error
	}{
		{"append", func() error { _, err := svc.Append(ctx, "b", overlapElems(5, 9, 20_000)); return err }},
		{"merge", func() error { _, err := svc.Catalog().MergeDelta(ctx, "b"); return err }},
		{"replace", func() error { _, err := svc.AddDataset(ctx, "b", overlapElems(300, 10, 30_000)); return err }},
	} {
		if _, err := svc.Join(ctx, "a", "b", p); err != nil {
			t.Fatal(err)
		}
		if parts, results := resident(svc); parts == 0 || results == 0 {
			t.Fatalf("before %s: %d partitions and %d results to drop", write.name, parts, results)
		}
		if err := write.do(); err != nil {
			t.Fatalf("%s: %v", write.name, err)
		}
		if parts, results := resident(svc); parts != 0 || results != 0 {
			t.Fatalf("%s left %d partitions and %d cached results of the overwritten state", write.name, parts, results)
		}
	}

	// Over the per-entry pair cap the result is not stored; the partition
	// stays as it does beside a stored one.
	small := NewService(Config{CacheMaxPairs: 1})
	addDataset(t, small, "a", overlapElems(300, 7, 1))
	addDataset(t, small, "b", overlapElems(300, 8, 10_000))
	if _, err := small.Join(ctx, "a", "b", p); err != nil {
		t.Fatal(err)
	}
	if parts, results := resident(small); parts != 1 || results != 0 {
		t.Fatalf("after an uncacheable join: %d partitions, %d results; want 1, 0", parts, results)
	}
}

// TestPartitionsBoundedAcrossAppends: 100 appends — background merges
// included — each followed by the same three join shapes never leave more
// resident partitions or cached results than the live state has keys: a
// partition for each shape and the stored shape's result.
func TestPartitionsBoundedAcrossAppends(t *testing.T) {
	svc := NewService(Config{DeltaMaxElements: 200})
	ctx := context.Background()
	addDataset(t, svc, "a", overlapElems(300, 11, 1))
	addDataset(t, svc, "b", overlapElems(300, 12, 10_000))
	shapes := []JoinParams{
		{Algorithm: engine.InMem},                              // stored: one result, one partition
		{Algorithm: engine.InMem, Distance: 8, NoCache: true},  // one partition
		{Algorithm: engine.InMem, Distance: 16, NoCache: true}, // one partition
	}
	for i := 0; i < 100; i++ {
		if _, err := svc.Append(ctx, "a", overlapElems(8, int64(100+i), uint64(100_000+100*i))); err != nil {
			t.Fatal(err)
		}
		svc.Quiesce()
		for _, p := range shapes {
			if _, err := svc.Join(ctx, "a", "b", p); err != nil {
				t.Fatal(err)
			}
		}
		st := svc.Stats()
		if st.Catalog.Partitions > 3 || st.Cache.Entries > 1 {
			t.Fatalf("after append %d: %d partitions, %d cached results; the live state has 3 and 1",
				i, st.Catalog.Partitions, st.Cache.Entries)
		}
	}
	if st := svc.Stats(); st.Catalog.Merges == 0 {
		t.Fatalf("no background merge ran in 100 appends: %+v", st.Catalog)
	}
}

// TestIndexCapBoundsPartitionsOnly: -max-indexes caps the resident partitions,
// which leave in LRU order; a dataset's index is not counted against it and
// never leaves — MaxIndexes: 1 keeps one partition beside any number of them.
func TestIndexCapBoundsPartitionsOnly(t *testing.T) {
	cat := NewCatalog(1, 0)
	ctx := context.Background()
	for i, name := range []string{"a", "b", "c"} {
		cat.Put(name, overlapElems(100, int64(13+i), uint64(1+10_000*i)))
		if _, err := cat.Acquire(ctx, name, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	acquire := func(d float64) *PartitionHandle {
		t.Helper()
		h, err := cat.AcquirePartition(ctx, "a", "b", d)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	for _, d := range []float64{0, 1, 2, 3} {
		acquire(d)
	}
	if st := cat.Stats(); st.Partitions != 1 || st.Evictions != 3 || st.Datasets != 3 || st.Builds != 3+4 {
		t.Fatalf("4 partitions and 3 datasets under a cap of 1: %+v, want 1 partition, 3 evicted, 3 datasets", st)
	}
	// The survivor is the most recently used.
	if !acquire(3).Hit || acquire(2).Hit {
		t.Fatal("the partition kept is not the most recently used")
	}
}

// TestPartitionEvictedMidJoin: under a cap of one partition, a streamed inmem
// join whose partition another acquisition evicts after its first pair still
// yields the naive answer — the join holds what it reads — and the next join
// of that shape builds the partition again.
func TestPartitionEvictedMidJoin(t *testing.T) {
	svc := NewService(Config{MaxIndexes: 1}) // NewCatalog(1, 0)
	ctx := context.Background()
	a, b := overlapElems(400, 23, 1), overlapElems(400, 24, 10_000)
	addDataset(t, svc, "a", cpElems(a))
	addDataset(t, svc, "b", cpElems(b))
	want := naiveRef(a, b, 0)
	p := JoinParams{Algorithm: engine.InMem, NoCache: true}
	var got []transformers.Pair
	_, err := svc.JoinStream(ctx, "a", "b", p, func(pr transformers.Pair) error {
		if len(got) == 0 {
			if _, err := svc.Catalog().AcquirePartition(ctx, "a", "b", 7); err != nil {
				return err
			}
			if st := svc.Stats().Catalog; st.Partitions != 1 || st.Evictions != 1 {
				t.Errorf("after a second partition under a cap of 1: %+v, want the streaming join's evicted", st)
			}
			runtime.GC()
		}
		got = append(got, pr)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || !pairsMatch(got, want) {
		t.Fatalf("join whose partition was evicted mid-stream: %d pairs, naive has %d", len(got), len(want))
	}
	builds := svc.Stats().Catalog.Builds
	out, err := svc.Join(ctx, "a", "b", p)
	if err != nil {
		t.Fatal(err)
	}
	if !pairsMatch(out.Pairs, want) || out.Summary.BuildMS <= 0 || svc.Stats().Catalog.Builds != builds+1 {
		t.Fatalf("next join: %d pairs of %d, build_ms %v, builds %d -> %d; want the naive answer off a rebuilt partition",
			len(out.Pairs), len(want), out.Summary.BuildMS, builds, svc.Stats().Catalog.Builds)
	}
}

// TestPartitionOverCapNotRetained: a pair with more combined elements than
// the planner routes to inmem is built for the join that asked and not kept.
func TestPartitionOverCapNotRetained(t *testing.T) {
	cat := NewCatalog(0, 0)
	n := planner.DefaultMaxInMemoryElements/2 + 1
	cat.Put("a", transformers.GenerateUniform(n, 15))
	cat.Put("b", transformers.GenerateUniform(n, 16))
	h, err := cat.AcquirePartition(context.Background(), "a", "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h.Partition == nil || h.Hit {
		t.Fatalf("over-cap acquisition: partition=%v hit=%v, want a fresh build", h.Partition != nil, h.Hit)
	}
	if st := cat.Stats(); st.Partitions != 0 {
		t.Fatalf("over-cap partition retained after its build: %+v", st)
	}
}

// TestPartitionEmptySide: an empty dataset on either side still answers zero
// pairs with a well-formed summary, through the partition path.
func TestPartitionEmptySide(t *testing.T) {
	svc := NewService(Config{})
	ctx := context.Background()
	svc.Catalog().Put("none", nil)
	svc.Catalog().Put("some", overlapElems(200, 17, 1))
	for _, pair := range [][2]string{{"none", "some"}, {"some", "none"}, {"none", "none"}} {
		for _, d := range []float64{0, 5} {
			for range [2]struct{}{} { // build, then hit
				out, err := svc.Join(ctx, pair[0], pair[1], JoinParams{Algorithm: engine.InMem, Distance: d, NoCache: true})
				if err != nil {
					t.Fatalf("%v at distance %v: %v", pair, d, err)
				}
				if len(out.Pairs) != 0 || out.Summary.Results != 0 || out.Summary.Algorithm != engine.InMem {
					t.Fatalf("%v at distance %v: %d pairs, summary %+v", pair, d, len(out.Pairs), out.Summary)
				}
			}
		}
	}
}

// TestPartitionObservability: the trace's partition span, the summary,
// /stats and /metrics all say whether a join paid the partition build.
func TestPartitionObservability(t *testing.T) {
	svc := NewService(Config{})
	addDataset(t, svc, "a", overlapElems(400, 18, 1))
	addDataset(t, svc, "b", overlapElems(400, 19, 10_000))
	traced := func() (*obs.TraceDTO, *JoinOutcome) {
		t.Helper()
		tr := obs.New(obs.NewRequestID())
		out, err := svc.Join(obs.NewContext(context.Background(), tr), "a", "b", JoinParams{Algorithm: engine.InMem, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		return tr.Finish(), out
	}

	miss, first := traced()
	span := miss.Find("partition")
	if span == nil || miss.Find("execute") == nil || miss.Find("partition-build") == nil {
		t.Fatalf("miss trace lacks execute > partition > partition-build: %v", miss.SpanNames())
	}
	if span.Counters["hit"] != 0 || span.Counters["bytes"] <= 0 || span.Counters["stripes"] <= 0 {
		t.Fatalf("miss partition span counters = %v", span.Counters)
	}
	if first.Summary.BuildMS <= 0 {
		t.Fatalf("the join that built the partition reports build_ms %v", first.Summary.BuildMS)
	}

	hit, second := traced()
	span = hit.Find("partition")
	if span == nil || hit.Find("partition-build") != nil {
		t.Fatalf("hit trace: %v, want a partition span without a build", hit.SpanNames())
	}
	if span.Counters["hit"] != 1 || span.Counters["bytes"] != miss.Find("partition").Counters["bytes"] {
		t.Fatalf("hit partition span counters = %v", span.Counters)
	}
	if second.Summary.BuildMS != 0 {
		t.Fatalf("a join on a resident partition reports build_ms %v, want 0", second.Summary.BuildMS)
	}

	st := svc.Stats().Catalog
	if st.Partitions != 1 || st.PartitionBytes != span.Counters["bytes"] {
		t.Fatalf("/stats catalog = %+v, want the one partition the span described", st)
	}
	var sb strings.Builder
	if err := svc.Metrics().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"spatialjoin_partitions 1",
		"spatialjoin_partition_bytes " + strconv.FormatFloat(float64(st.PartitionBytes), 'g', -1, 64),
		"spatialjoin_catalog_resident_bytes " + strconv.FormatFloat(float64(st.ResidentBytes), 'g', -1, 64),
	} {
		if !strings.Contains(sb.String(), want+"\n") {
			t.Fatalf("/metrics lacks %q", want)
		}
	}
}

// TestRepeatInMemJoinByteBudget: a repeat no_cache inmem join of two 100K
// datasets runs on the resident partition and allocates next to nothing —
// the per-request copies, sort keys and SoA arena (31 MB) are gone.
func TestRepeatInMemJoinByteBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 200K-element partition")
	}
	svc := NewService(Config{})
	// Straight into the catalog: the inmem path needs no TRANSFORMERS index.
	svc.Catalog().Put("u", transformers.GenerateUniform(100_000, 21))
	svc.Catalog().Put("d", transformers.GenerateDenseCluster(100_000, 22))
	p := JoinParams{Algorithm: engine.InMem, NoCache: true}
	join := func() {
		t.Helper()
		if _, err := svc.Join(context.Background(), "u", "d", p); err != nil {
			t.Fatal(err)
		}
	}
	join() // builds the partition
	join() // warms whatever the hit path allocates once
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	join()
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("repeat join allocated %d bytes", got)
	if got >= 256<<10 {
		t.Fatalf("repeat join allocated %d bytes, budget is 256 KB", got)
	}
}
