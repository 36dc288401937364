package server

import (
	"context"
	"errors"
	"math"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/engine/inmem"
	"repro/internal/naive"
	"repro/transformers"
)

func elemsN(n int, seed int64) []transformers.Element {
	return transformers.GenerateUniform(n, seed)
}

// liveHeap is the heap's live object bytes after a collection.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC() // pooled join state goes on the second cycle
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64())
}

func TestCatalogUnknownDataset(t *testing.T) {
	c := NewCatalog(0, 0)
	if _, err := c.Acquire(context.Background(), "nope", 0); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("err = %v, want ErrUnknownDataset", err)
	}
	if _, err := c.joinInput("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("joinInput err = %v, want ErrUnknownDataset", err)
	}
}

// TestCatalogJoinInputIsOneGeneration: the statistics, version and delta size a
// join is planned on describe one generation, however the read interleaves
// with replacements — odd versions hold 100 elements here, even ones 200.
func TestCatalogJoinInputIsOneGeneration(t *testing.T) {
	c := NewCatalog(0, 0)
	small, large := elemsN(100, 1), elemsN(200, 2)
	c.Put("ds", small)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 400; i++ {
			c.Put("ds", large)
			c.Put("ds", small)
		}
	}()
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		in, err := c.joinInput("ds")
		if err != nil {
			t.Fatal(err)
		}
		if want := 100 + 100*int(1-in.version%2); in.stats.Count != want || in.delta != 0 {
			t.Fatalf("version %d planned on statistics of %d elements (delta %d), want %d", in.version, in.stats.Count, in.delta, want)
		}
	}
}

// TestCatalogBuildOnceQueryMany: repeated acquisitions reuse the one build.
func TestCatalogBuildOnceQueryMany(t *testing.T) {
	c := NewCatalog(0, 0)
	c.Put("ds", elemsN(2000, 2))
	for i := 0; i < 10; i++ {
		if _, err := c.Acquire(context.Background(), "ds", 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.Stats().Builds; got != 1 {
		t.Fatalf("builds = %d after 10 acquisitions, want 1", got)
	}
}

// TestCatalogReplaceBumpsVersion: replacing a dataset orphans its indexes
// and bumps the version used in cache keys.
func TestCatalogReplaceBumpsVersion(t *testing.T) {
	c := NewCatalog(0, 0)
	c.Put("ds", elemsN(1000, 5))
	h1, err := c.Acquire(context.Background(), "ds", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h1.Version != 1 {
		t.Fatalf("version = %d, want 1", h1.Version)
	}
	c.Put("ds", elemsN(500, 6))
	h2, err := c.Acquire(context.Background(), "ds", 0)
	if err != nil {
		t.Fatal(err)
	}
	if h2.Version != 2 {
		t.Fatalf("version = %d, want 2", h2.Version)
	}
	if h2.Index == h1.Index {
		t.Fatal("replacement served the stale index")
	}
	if h2.Index.Len() != 500 {
		t.Fatalf("new index has %d elements, want 500", h2.Index.Len())
	}
	// The pre-replacement handle stays valid.
	if h1.Index.Len() != 1000 {
		t.Fatalf("old handle sees %d elements, want 1000", h1.Index.Len())
	}
}

// TestCatalogDistanceVariant: a distance is served by a view of the dataset's
// one index — a distinct Index over the same elements, never a build — and a
// join through two such views is the naive answer on expanded copies.
func TestCatalogDistanceVariant(t *testing.T) {
	c := NewCatalog(0, 0)
	elems := overlapElems(800, 7, 1)
	c.Put("ds", cpElems(elems))
	h0, err := c.Acquire(context.Background(), "ds", 0)
	if err != nil {
		t.Fatal(err)
	}
	h5, err := c.Acquire(context.Background(), "ds", 5)
	if err != nil {
		t.Fatal(err)
	}
	if h0.Index == h5.Index || h5.Index.Len() != h0.Index.Len() {
		t.Fatalf("distance handle: same index %v, %d of %d elements", h0.Index == h5.Index, h5.Index.Len(), h0.Index.Len())
	}
	h5b, err := c.Acquire(context.Background(), "ds", 5)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Builds != 1 || st.Datasets != 1 {
		t.Fatalf("three acquisitions at two distances: %+v, want one build and one dataset", st)
	}
	res, err := transformers.Join(h5.Index, h5b.Index, transformers.JoinOptions{Concurrent: true})
	if err != nil {
		t.Fatal(err)
	}
	if want := naiveRef(elems, elems, 5); !pairsMatch(res.Pairs, want) || len(want) <= len(elems) {
		t.Fatalf("self-join through two distance handles: %d pairs, naive on expanded copies has %d", len(res.Pairs), len(want))
	}
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := c.Acquire(context.Background(), "ds", bad); err == nil {
			t.Fatalf("expansion %v accepted", bad)
		}
	}
}

// TestDistanceSweepHoldsOneIndex: 32 transformers joins at 32 distinct
// distances over two 50K datasets build nothing and keep nothing — the
// catalog's builds and indexes stay at the uploads' two and the live heap
// grows by at most a fifth of 56 bytes an element (one expanded, indexed copy
// per distance per side when each distance had its own index) — and every
// answer is the naive one on expanded copies: free of duplicates, every pair
// within the distance, and on every hundredth element of A, where the
// quadratic reference is affordable, complete.
func TestDistanceSweepHoldsOneIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("indexes two 50K datasets")
	}
	const n, distances, maxDistance = 50_000, 32, 16.0
	ctx := context.Background()
	a, b := transformers.GenerateUniform(n, 31), transformers.GenerateDenseCluster(n, 32)
	boxA, boxB := make(map[uint64]transformers.Box, n), make(map[uint64]transformers.Box, n)
	var sample []transformers.Element
	sampled := make(map[uint64]bool)
	for i, e := range a {
		boxA[e.ID] = e.Box
		if i%100 == 0 {
			sample, sampled[e.ID] = append(sample, e), true
		}
	}
	for _, e := range b {
		boxB[e.ID] = e.Box
	}
	// Box.Expand is monotone in its argument, so the sample's pairs at the
	// largest distance contain its pairs at every smaller one.
	candidates := naiveRef(sample, b, maxDistance)

	svc := NewService(Config{Parallelism: 1})
	addDataset(t, svc, "a", cpElems(a))
	addDataset(t, svc, "b", cpElems(b))
	uploaded := liveHeap()
	for i := 1; i <= distances; i++ {
		d := maxDistance * float64(i) / distances
		out, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: "transformers", Distance: d, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		within := func(p transformers.Pair) bool {
			return boxA[p.A].Expand(d / 2).Intersects(boxB[p.B].Expand(d / 2))
		}
		var got, want []transformers.Pair
		for _, p := range out.Pairs {
			if !within(p) {
				t.Fatalf("distance %v: pair %+v is farther apart", d, p)
			}
			if sampled[p.A] {
				got = append(got, p)
			}
		}
		for _, p := range candidates {
			if within(p) {
				want = append(want, p)
			}
		}
		if sorted := cpElemsPairs(out.Pairs); len(naive.Dedup(sorted)) != len(out.Pairs) || !pairsMatch(got, want) {
			t.Fatalf("distance %v: %d pairs with duplicates, or %d on the sample where naive has %d", d, len(out.Pairs), len(got), len(want))
		}
	}
	if st := svc.Stats().Catalog; st.Builds != 2 || st.Datasets != 2 {
		t.Fatalf("after %d distinct distances: %+v, want 2 builds and 2 datasets", distances, st)
	}
	grew, bound := liveHeap()-uploaded, int64(0.2*56*2*n)
	t.Logf("%d distinct distances: live heap grew %d B over two %d-element uploads (bound %d)", distances, grew, n, bound)
	if grew > bound {
		t.Fatalf("%d distinct distances hold %d bytes of live heap, want at most %d", distances, grew, bound)
	}
	// What was live at the first measurement stays so until the second.
	runtime.KeepAlive([]any{svc, a, b, boxA, boxB, sampled, candidates})
}

// TestResidentDatasetHeldOnce: a resident dataset costs its elements once —
// the generation's slice is the index's data pages — plus descriptors: after
// an upload, after an append and its merge, and after 16 joins at 16 distinct
// distances, the live heap grew by at most 1.3 x 56 bytes an element (2.1 x
// when the index kept an encoded copy of every page, one more per distance
// when each had an index of its own).
func TestResidentDatasetHeldOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("indexes 100K elements twice")
	}
	const n, extra = 100_000, 4096
	ctx := context.Background()
	svc := NewService(Config{Parallelism: 1, MaxIndexes: 1})
	before := liveHeap()
	check := func(after string, elements int) {
		t.Helper()
		grew, bound := liveHeap()-before, int64(1.3*56*float64(elements))
		t.Logf("after %s: live heap grew %d B for %d elements (%.2f x 56 B each, bound 1.3)", after, grew, elements, float64(grew)/56/float64(elements))
		if grew > bound {
			t.Fatalf("after %s: %d elements hold %d bytes of live heap, want at most %d", after, elements, grew, bound)
		}
	}

	addDataset(t, svc, "u", elemsN(n, 3))
	check("upload", n)

	if _, err := svc.Append(ctx, "u", elemsN(extra, 4)); err != nil {
		t.Fatal(err)
	}
	if merged, err := svc.Catalog().MergeDelta(ctx, "u"); err != nil || merged != extra {
		t.Fatalf("merge compacted %d of %d elements: %v", merged, extra, err)
	}
	check("append and merge", n+extra)

	for d := 1; d <= 16; d++ {
		p := JoinParams{NoCache: true, Algorithm: "transformers", Distance: float64(d) / 64}
		if out, err := svc.Join(ctx, "u", "u", p); err != nil || len(out.Pairs) < n+extra {
			t.Fatalf("self-join at distance %v: %d pairs, err %v", p.Distance, len(out.Pairs), err)
		}
	}
	if st := svc.Catalog().Stats(); st.Datasets != 1 || st.Builds != 2 {
		t.Fatalf("after 16 distinct-distance joins: %+v, want the upload's and the merge's builds and one dataset", st)
	}
	check("16 distinct-distance joins", n+extra)
	runtime.KeepAlive(svc) // or the last check measures a heap the service has left
}

// TestResidentPartitionIsAFilter: a resident inmem partition costs 28 bytes
// an assignment — float32 bounds and a position — and reads the exact boxes
// and IDs from the generations' own arrays: the live heap grows by at most
// 0.6 x 56 bytes an assignment over the two datasets (1.03 x when the
// partition was a full-precision copy), at distance 0, at distance 5 and with a delta
// on one side, for which no grown or combined copy is kept either.
func TestResidentPartitionIsAFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("indexes 100K elements twice")
	}
	const n, extra = 100_000, 4096
	ctx := context.Background()
	svc := NewService(Config{Parallelism: 1, MaxIndexes: 1})
	cat := svc.Catalog()
	addDataset(t, svc, "u", transformers.GenerateUniform(n, 3))
	addDataset(t, svc, "d", transformers.GenerateDenseCluster(n, 4))
	uploaded := liveHeap()

	// partition acquires the pair's partition at distance, joins on it once
	// and holds it to the byte formula and to 0.6 x 56 B an assignment (an
	// element, and once more per stripe boundary it crosses) of live heap
	// beyond base.
	partition := func(what string, distance float64, elements int, base int64) *PartitionHandle {
		t.Helper()
		h, err := cat.AcquirePartition(ctx, "u", "d", distance)
		if err != nil {
			t.Fatal(err)
		}
		if h.Hit {
			t.Fatalf("%s: the partition was already resident", what)
		}
		js := h.Partition.Join(inmem.JoinConfig{Parallelism: 1}, func(uint64, uint64) {})
		assignments, offsets := elements+js.ReplicatedA+js.ReplicatedB, 2*(2*js.Stripes+1)
		if got, want := cat.Stats().PartitionBytes, int64(28*assignments+4*offsets); got != want {
			t.Fatalf("%s: partition_bytes = %d, want 28 x %d assignments + 4 x %d offsets = %d", what, got, assignments, offsets, want)
		}
		grew, bound := liveHeap()-base, int64(0.6*56*float64(assignments))
		t.Logf("%s: live heap grew %d B for %d assignments of %d elements (%.2f x 56 B each, bound 0.6), %d results", what, grew, assignments, elements, float64(grew)/56/float64(assignments), js.Results)
		if grew > bound {
			t.Fatalf("%s: a partition of %d assignments holds %d bytes of live heap, want at most %d", what, assignments, grew, bound)
		}
		h.Release()
		return h
	}
	partition("distance 0", 0, 2*n, uploaded).Forget()
	partition("distance 5", 5, 2*n, uploaded).Forget()
	if _, err := svc.Append(ctx, "u", elemsN(extra, 5)); err != nil {
		t.Fatal(err)
	}
	partition("distance 5 over a delta", 5, 2*n+extra, liveHeap())
}

// TestCatalogReplacementRacesReaders: a replacement is built before it is
// installed, so readers racing a stream of them — a distance acquisition and
// its DeltaView, Snapshot, a partition build — each see one whole version of
// the dataset, and (under -race) the catalog's installation publishes the
// generation they read.
func TestCatalogReplacementRacesReaders(t *testing.T) {
	const n = 3000
	ctx := context.Background()
	c := NewCatalog(1, 0)
	if _, err := c.Put("ds", elemsN(n, 9)); err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, e := range elemsN(n, 9) {
		want += e.ID
	}
	whole := func(elems []transformers.Element) bool {
		var sum uint64
		for _, e := range elems {
			sum += e.ID
		}
		return len(elems) == n && sum == want
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range []func() bool{
		func() bool {
			h, err := c.Acquire(ctx, "ds", 7)
			if err != nil {
				return false
			}
			base, _, _ := c.DeltaView(h)
			return whole(base) && h.Index.Len() == n
		},
		func() bool {
			snap, _, _, _, err := c.Snapshot("ds")
			return err == nil && whole(snap)
		},
		func() bool {
			ph, err := c.AcquirePartition(ctx, "ds", "ds", 0)
			if err == nil {
				ph.Release()
			}
			return err == nil
		},
	} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if !read() {
					t.Error("a reader did not see the whole dataset")
					return
				}
			}
		}()
	}
	for round := 0; round < 30; round++ {
		version, err := c.Put("ds", elemsN(n, 9))
		if err != nil {
			t.Fatal(err)
		}
		if h, err := c.Acquire(ctx, "ds", 0); err != nil || h.Version < version || h.Index.Len() != n {
			t.Fatalf("round %d: acquisition after a replacement: %+v, err %v", round, h, err)
		}
	}
	close(done)
	wg.Wait()
}

// TestPutHoldsItsUpload: Put installs the slice it was given — the build
// orders it in place and the index reads its pages from it — and copies none
// of it. With one P, so that the build's allocations do not vary with the
// core count, a 100K-element Put allocates at least 56 B an element (the
// copy) less than the 10 811 584 B (10 850 288 B under the race detector)
// that a Put and the first Acquire allocated when that Acquire built the
// index over a clone of the upload.
func TestPutHoldsItsUpload(t *testing.T) {
	const n = 100_000
	cloned := uint64(10_811_584)
	if raceEnabled {
		cloned = 10_850_288
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	alloc := uint64(math.MaxUint64)
	for i := 0; i < 3; i++ { // the least of three: nothing else allocates in it
		c := NewCatalog(0, 0)
		elems := elemsN(n, 41)
		alloc = min(alloc, allocatedBy(func() {
			if _, err := c.Put("ds", elems); err != nil {
				t.Fatal(err)
			}
		}))
		c.mu.Lock()
		installed := c.datasets["ds"].cur.elems
		c.mu.Unlock()
		if unsafe.SliceData(installed) != unsafe.SliceData(elems) || len(installed) != n {
			t.Fatal("the installed generation does not hold the uploaded array")
		}
	}
	bound := cloned - 56*n
	t.Logf("Put of %d elements allocated %d B (%.1f B each); Put + first Acquire over a clone allocated %d B; bound %d B", n, alloc, float64(alloc)/n, cloned, bound)
	if alloc > bound {
		t.Fatalf("Put of %d elements allocated %d B, want at most %d", n, alloc, bound)
	}
}

// TestBuildInfoDescribesItsOwnUpload: two uploads racing under one name each
// get the report of the version they installed — their own element count
// beside a version number nobody else was given.
func TestBuildInfoDescribesItsOwnUpload(t *testing.T) {
	const rounds = 50
	svc := NewService(Config{Workers: 4})
	sizes := [2]int{200, 300}
	versions := make(map[uint64]bool)
	for round := 0; round < rounds; round++ {
		var infos [2]BuildInfo
		var errs [2]error
		var wg sync.WaitGroup
		for i, n := range sizes {
			wg.Add(1)
			go func(i, n int) {
				defer wg.Done()
				infos[i], errs[i] = svc.AddDataset(context.Background(), "ds", elemsN(n, int64(round)))
			}(i, n)
		}
		wg.Wait()
		for i, info := range infos {
			if errs[i] != nil || info.Elements != sizes[i] || versions[info.Version] {
				t.Fatalf("round %d: upload of %d elements answered %+v, err %v (versions so far %v)", round, sizes[i], info, errs[i], versions)
			}
			versions[info.Version] = true
		}
	}
}
