package server

import (
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/naive"
	"repro/transformers"
)

func TestPoolBoundsConcurrency(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 2, MaxQueue: -1})
	var mu sync.Mutex
	active, peak := 0, 0
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Do(context.Background(), Request{}, func() error {
				mu.Lock()
				active++
				if active > peak {
					peak = active
				}
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
				mu.Lock()
				active--
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if peak > 2 {
		t.Fatalf("peak concurrency %d, want <= 2", peak)
	}
	if got := p.Stats().Completed; got != 10 {
		t.Fatalf("completed = %d, want 10", got)
	}
}

func TestPoolRejectsWhenSaturated(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 1, MaxQueue: 0}) // one slot, no queue
	release := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), Request{}, func() error {
		close(started)
		<-release
		return nil
	})
	<-started
	err := p.Do(context.Background(), Request{}, func() error { return nil })
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}
	if got := p.Stats().Rejected; got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	close(release)
}

func TestPoolHonorsContext(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 1, MaxQueue: -1})
	release := make(chan struct{})
	started := make(chan struct{})
	go p.Do(context.Background(), Request{}, func() error {
		close(started)
		<-release
		return nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := p.Do(ctx, Request{}, func() error { return nil }); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	close(release)
}

func TestJoinCacheLRU(t *testing.T) {
	c := NewJoinCache(2, 0)
	k := func(i uint64) JoinKey { return JoinKey{A: "a", B: "b", VersionA: i, Predicate: "intersects"} }
	c.Put(k(1), &CachedJoin{})
	c.Put(k(2), &CachedJoin{})
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("k1 missing")
	}
	c.Put(k(3), &CachedJoin{}) // evicts k2 (k1 was just touched)
	if _, ok := c.Get(k(2)); ok {
		t.Fatal("k2 should have been evicted")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("k1 evicted out of LRU order")
	}
	st := c.Stats()
	if st.Entries != 2 || st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestJoinCachePairCap(t *testing.T) {
	c := NewJoinCache(4, 2)
	key := JoinKey{A: "a", B: "b"}
	c.Put(key, &CachedJoin{Pairs: make([]transformers.Pair, 3)})
	if _, ok := c.Get(key); ok {
		t.Fatal("oversized result was cached")
	}
	c.Put(key, &CachedJoin{Pairs: make([]transformers.Pair, 2)})
	if _, ok := c.Get(key); !ok {
		t.Fatal("in-cap result was not cached")
	}
}

// TestServiceJoinMatchesNaive validates the served join (and its cached
// replay) against the naive reference, and the distance join against a naive
// join of expanded boxes.
func TestServiceJoinMatchesNaive(t *testing.T) {
	a := transformers.GenerateDenseCluster(2000, 11)
	b := transformers.GenerateUniform(2000, 12)
	want := naive.Join(a, b)

	svc := NewService(Config{})
	if _, err := svc.AddDataset(context.Background(), "a", append([]transformers.Element(nil), a...)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(context.Background(), "b", append([]transformers.Element(nil), b...)); err != nil {
		t.Fatal(err)
	}

	out, err := svc.Join(context.Background(), "a", "b", JoinParams{})
	if err != nil {
		t.Fatal(err)
	}
	if out.Cached {
		t.Fatal("first join reported cached")
	}
	if !naive.Equal(append([]transformers.Pair(nil), out.Pairs...), want) {
		t.Fatalf("join disagrees with naive: %d vs %d pairs", len(out.Pairs), len(want))
	}

	out2, err := svc.Join(context.Background(), "a", "b", JoinParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Cached {
		t.Fatal("second join not served from cache")
	}
	if len(out2.Pairs) != len(want) {
		t.Fatalf("cached join returned %d pairs, want %d", len(out2.Pairs), len(want))
	}

	// Distance join vs naive on expanded boxes.
	const d = 4.0
	ea := geom.ExpandedForDistance(a, d)
	eb := geom.ExpandedForDistance(b, d)
	wantDist := naive.Join(ea, eb)
	outD, err := svc.Join(context.Background(), "a", "b", JoinParams{Distance: d})
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(append([]transformers.Pair(nil), outD.Pairs...), wantDist) {
		t.Fatalf("distance join disagrees with naive: %d vs %d pairs", len(outD.Pairs), len(wantDist))
	}

	// Replacing a dataset invalidates cached results through the version key.
	if _, err := svc.AddDataset(context.Background(), "b", transformers.GenerateUniform(1000, 13)); err != nil {
		t.Fatal(err)
	}
	out3, err := svc.Join(context.Background(), "a", "b", JoinParams{})
	if err != nil {
		t.Fatal(err)
	}
	if out3.Cached {
		t.Fatal("join after dataset replacement served stale cache entry")
	}
}

// TestServiceCacheHitSkipsRebuild: a cached join result must be served
// without acquiring (and so possibly rebuilding) the evicted indexes.
func TestServiceCacheHitSkipsRebuild(t *testing.T) {
	svc := NewService(Config{MaxIndexes: 1})
	if _, err := svc.AddDataset(context.Background(), "a", transformers.GenerateUniform(1500, 23)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(context.Background(), "b", transformers.GenerateUniform(1500, 24)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Join(context.Background(), "a", "b", JoinParams{}); err != nil {
		t.Fatal(err)
	}
	// The 1-index cap guarantees at least one side's index is evicted now.
	builds := svc.Catalog().Stats().Builds
	out, err := svc.Join(context.Background(), "a", "b", JoinParams{})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Cached {
		t.Fatal("second join not served from cache")
	}
	if got := svc.Catalog().Stats().Builds; got != builds {
		t.Fatalf("cache hit triggered %d rebuilds", got-builds)
	}
}

// TestRefusedJoinsAreNotCounted: /stats joins counts the joins accepted for
// planning, so a join naming an engine the service does not serve, or a
// dataset it does not hold, leaves it unchanged.
func TestRefusedJoinsAreNotCounted(t *testing.T) {
	svc := NewService(Config{})
	ctx := context.Background()
	addDataset(t, svc, "a", transformers.GenerateUniform(100, 24))
	if _, err := svc.Join(ctx, "a", "a", JoinParams{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		b, algo string
		want    error
	}{{"a", "pbsm", ErrUnknownAlgorithm}, {"nope", "", ErrUnknownDataset}, {"nope", AlgorithmAuto, ErrUnknownDataset}} {
		if _, err := svc.Join(ctx, "a", tc.b, JoinParams{Algorithm: tc.algo}); !errors.Is(err, tc.want) {
			t.Fatalf("join of a and %q by %q: %v, want %v", tc.b, tc.algo, err, tc.want)
		}
	}
	if st := svc.Stats(); st.Joins != 1 {
		t.Fatalf("/stats joins = %d after one served and three refused joins, want 1", st.Joins)
	}
}

// TestServiceRejectsNonFiniteDistance: NaN/Inf must be refused — a NaN map
// key would be unevictable and break the catalog.
func TestServiceRejectsNonFiniteDistance(t *testing.T) {
	svc := NewService(Config{})
	if _, err := svc.AddDataset(context.Background(), "a", transformers.GenerateUniform(100, 25)); err != nil {
		t.Fatal(err)
	}
	for _, d := range []float64{math.NaN(), math.Inf(1), -1} {
		if _, err := svc.Join(context.Background(), "a", "a", JoinParams{Distance: d}); err == nil {
			t.Fatalf("distance %v accepted", d)
		}
	}
	if _, err := svc.Catalog().Acquire(context.Background(), "a", math.NaN()); err == nil {
		t.Fatal("catalog accepted NaN expansion")
	}
}

// TestServiceConcurrentMixedLoad hammers one service with concurrent joins
// and range queries on shared indexes, a's append buffer included — the -race
// gate for the serving path.
func TestServiceConcurrentMixedLoad(t *testing.T) {
	a := transformers.GenerateUniform(1500, 21)
	b := transformers.GenerateMassiveCluster(1500, 22)
	extra := transformers.GenerateUniform(300, 23)
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	all := append(append([]transformers.Element(nil), a...), extra...)
	want := naive.Join(all, b)
	q := transformers.Box{Lo: transformers.Point{200, 200, 200}, Hi: transformers.Point{500, 500, 500}}
	var wantRange, deltaRange int
	for i, e := range all {
		if e.Box.Intersects(q) {
			wantRange++
			if i >= len(a) {
				deltaRange++
			}
		}
	}
	if deltaRange == 0 {
		t.Fatal("no appended element meets the query box")
	}

	svc := NewService(Config{Workers: 4})
	if _, err := svc.AddDataset(context.Background(), "a", append([]transformers.Element(nil), a...)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDataset(context.Background(), "b", append([]transformers.Element(nil), b...)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Append(context.Background(), "a", extra); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				// Alternate cached and uncached joins.
				out, err := svc.Join(context.Background(), "a", "b",
					JoinParams{NoCache: i%2 == 0})
				if err != nil {
					t.Error(err)
					return
				}
				if int(out.Summary.Results) != len(want) {
					t.Errorf("join returned %d results, want %d", out.Summary.Results, len(want))
					return
				}
				elems, _, err := svc.RangeQuery(context.Background(), "a", q)
				if err != nil {
					t.Error(err)
					return
				}
				if len(elems) != wantRange {
					t.Errorf("range returned %d, want %d", len(elems), wantRange)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := svc.Catalog().Stats().Builds; got != 2 {
		t.Fatalf("builds = %d under concurrent load, want 2 (build once, query many)", got)
	}
}

// TestAddDatasetRejectedLeavesDatasetIntact: a registration that fails
// admission must not have replaced the dataset or invalidated its indexes.
func TestAddDatasetRejectedLeavesDatasetIntact(t *testing.T) {
	svc := NewService(Config{})
	if _, err := svc.AddDataset(context.Background(), "a", transformers.GenerateUniform(500, 26)); err != nil {
		t.Fatal(err)
	}
	before, err := svc.Catalog().joinInput("a")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.AddDataset(ctx, "a", transformers.GenerateUniform(100, 27)); err == nil {
		t.Fatal("canceled registration succeeded")
	}
	after, err := svc.Catalog().joinInput("a")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("rejected registration changed the dataset: %+v -> %+v", before, after)
	}
	// The original data still serves.
	elems, _, err := svc.RangeQuery(context.Background(), "a", transformers.World())
	if err != nil {
		t.Fatal(err)
	}
	if len(elems) != 500 {
		t.Fatalf("dataset has %d elements after rejected replace, want 500", len(elems))
	}
}
