package server

import (
	"context"
	"errors"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"

	"repro/internal/engine/inmem"
	"repro/transformers"
)

func elemsN(n int, seed int64) []transformers.Element {
	return transformers.GenerateUniform(n, seed)
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

// TestCatalogSingleFlight checks that N concurrent acquisitions of a cold
// index trigger exactly one build.
func TestCatalogSingleFlight(t *testing.T) {
	c := NewCatalog(0, 0)
	c.Put("ds", elemsN(3000, 1))

	const workers = 16
	var wg sync.WaitGroup
	indexes := make([]*transformers.Index, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h, err := c.Acquire(context.Background(), "ds", 0)
			if err != nil {
				t.Error(err)
				return
			}
			indexes[i] = h.Index
			h.Release()
		}(i)
	}
	wg.Wait()
	if got := c.Stats().Builds; got != 1 {
		t.Fatalf("builds = %d, want 1 (single-flight)", got)
	}
	for i := 1; i < workers; i++ {
		if indexes[i] != indexes[0] {
			t.Fatalf("worker %d got a different index instance", i)
		}
	}
}

// TestCatalogBuildOnceQueryMany: repeated acquisitions reuse the one build.
func TestCatalogBuildOnceQueryMany(t *testing.T) {
	c := NewCatalog(0, 0)
	c.Put("ds", elemsN(2000, 2))
	for i := 0; i < 10; i++ {
		h, err := c.Acquire(context.Background(), "ds", 0)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if got := c.Stats().Builds; got != 1 {
		t.Fatalf("builds = %d after 10 acquisitions, want 1", got)
	}
}

// TestCatalogRefCountedEviction: pinned indexes survive eviction pressure,
// unpinned LRU ones are dropped and rebuild on next use.
func TestCatalogRefCountedEviction(t *testing.T) {
	c := NewCatalog(1, 0) // room for one built index
	c.Put("a", elemsN(1000, 3))
	c.Put("b", elemsN(1000, 4))

	ha, err := c.Acquire(context.Background(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	// Second build overflows the cap, but "a" is pinned and "b" is the one
	// being acquired — nothing evictable yet.
	hb, err := c.Acquire(context.Background(), "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Indexes; got != 2 {
		t.Fatalf("indexes = %d while both pinned, want 2 (overflow)", got)
	}
	if got := c.Stats().Evictions; got != 0 {
		t.Fatalf("evictions = %d while pinned, want 0", got)
	}

	// Releasing "b" makes it evictable; the cap forces it out while the
	// still-pinned "a" survives.
	hb.Release()
	if got := c.Stats().Indexes; got != 1 {
		t.Fatalf("indexes = %d after release, want 1", got)
	}
	if got := c.Stats().Evictions; got != 1 {
		t.Fatalf("evictions = %d, want 1", got)
	}
	// "a" is still served without a rebuild...
	ha2, err := c.Acquire(context.Background(), "a", 0)
	if err != nil {
		t.Fatal(err)
	}
	ha2.Release()
	ha.Release()
	if got := c.Stats().Builds; got != 2 {
		t.Fatalf("builds = %d, want 2 (a kept)", got)
	}
	// ...and "b" transparently rebuilds.
	hb2, err := c.Acquire(context.Background(), "b", 0)
	if err != nil {
		t.Fatal(err)
	}
	hb2.Release()
	if got := c.Stats().Builds; got != 3 {
		t.Fatalf("builds = %d, want 3 (b rebuilt)", got)
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
	// The pre-replacement handle stays valid until released.
	if h1.Index.Len() != 1000 {
		t.Fatalf("old handle sees %d elements, want 1000", h1.Index.Len())
	}
	h1.Release()
	h2.Release()
}

// TestCatalogDistanceVariant: expanded indexes are separate variants of the
// same dataset, built independently and reused.
func TestCatalogDistanceVariant(t *testing.T) {
	c := NewCatalog(0, 0)
	c.Put("ds", elemsN(800, 7))
	h0, err := c.Acquire(context.Background(), "ds", 0)
	if err != nil {
		t.Fatal(err)
	}
	h5, err := c.Acquire(context.Background(), "ds", 5)
	if err != nil {
		t.Fatal(err)
	}
	if h0.Index == h5.Index {
		t.Fatal("distance variant shares the base index")
	}
	h5b, err := c.Acquire(context.Background(), "ds", 5)
	if err != nil {
		t.Fatal(err)
	}
	if h5b.Index != h5.Index {
		t.Fatal("distance variant was rebuilt")
	}
	if got := c.Stats().Builds; got != 2 {
		t.Fatalf("builds = %d, want 2", got)
	}
	h0.Release()
	h5.Release()
	h5b.Release()
	if _, err := c.Acquire(context.Background(), "ds", -1); err == nil {
		t.Fatal("negative expansion accepted")
	}
}

// TestResidentDatasetHeldOnce: a resident dataset costs its elements once —
// the generation's slice is the base index's data pages — plus descriptors:
// after an upload, after an append and its merge, and after the base variant
// was evicted and built again, the live heap grew by at most 1.3 x 56 bytes an
// element (2.1 x when the index kept an encoded copy of every page).
func TestResidentDatasetHeldOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("indexes 100K elements three times")
	}
	const n, extra = 100_000, 4096
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	live := func() int64 {
		runtime.GC()
		runtime.GC() // pooled join state goes on the second cycle
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	ctx := context.Background()
	svc := NewService(Config{Parallelism: 1, MaxIndexes: 1})
	before := live()
	check := func(after string, elements int) {
		t.Helper()
		grew, bound := live()-before, int64(1.3*56*float64(elements))
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

	// One index slot: acquiring a distance variant evicts the base variant,
	// and acquiring the base variant again evicts that one.
	cat := svc.Catalog()
	for _, expand := range []float64{5, 0} {
		h, err := cat.Acquire(ctx, "u", expand)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	if st := cat.Stats(); st.Indexes != 1 || st.Evictions < 2 {
		t.Fatalf("the base variant was not evicted and rebuilt: %+v", st)
	}
	check("evicting and re-acquiring the base variant", n+extra)
	if out, err := svc.Join(ctx, "u", "u", JoinParams{NoCache: true, Algorithm: "transformers"}); err != nil || len(out.Pairs) < n+extra {
		t.Fatalf("self-join over the rebuilt base index: %d pairs, err %v", len(out.Pairs), err)
	}
}

// TestResidentPartitionIsAFilter: a resident inmem partition costs 28 bytes
// an assignment — float32 bounds and a position — and reads the exact boxes
// and IDs from the generations' own arrays: the live heap grows by at most
// 0.6 x 56 bytes an assignment over the two datasets (1.03 x when the
// partition was a full-precision copy), at distance 0, at distance 5 and with a delta
// on one side, for which no grown or combined copy is kept either. A
// partition pins the arrays it was built from, so a base rebuild after
// eviction, which installs a new one, drops it.
func TestResidentPartitionIsAFilter(t *testing.T) {
	if testing.Short() {
		t.Skip("indexes 100K elements three times")
	}
	const n, extra = 100_000, 4096
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	live := func() int64 {
		runtime.GC()
		runtime.GC() // pooled join state goes on the second cycle
		metrics.Read(sample)
		return int64(sample[0].Value.Uint64())
	}
	ctx := context.Background()
	// Two slots: a partition and one index variant fit side by side.
	svc := NewService(Config{Parallelism: 1, MaxIndexes: 2})
	cat := svc.Catalog()
	empty := live()
	addDataset(t, svc, "u", transformers.GenerateUniform(n, 3))
	addDataset(t, svc, "d", transformers.GenerateDenseCluster(n, 4))
	uploaded := live()

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
		grew, bound := live()-base, int64(0.6*56*float64(assignments))
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
	appended := live()
	partition("distance 5 over a delta", 5, 2*n+extra, appended)

	// Evict u's base variant and build it again, with the partition resident
	// and used more recently than any index variant.
	reacquire := func(name string, expand float64) {
		t.Helper()
		h, err := cat.Acquire(ctx, name, expand)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	for _, expand := range []float64{5, 0} {
		hp, err := cat.AcquirePartition(ctx, "u", "d", 5)
		if err != nil || !hp.Hit {
			t.Fatalf("the partition did not stay resident (err=%v): %+v", err, cat.Stats())
		}
		hp.Release()
		reacquire("u", expand)
	}
	if st := cat.Stats(); st.Partitions != 0 || st.Indexes != 2 {
		t.Fatalf("a partition over the replaced array stayed resident: %+v", st)
	}
	// d's base variant takes the slot of u's distance variant, and of the
	// grown copy that one indexed.
	reacquire("d", 0)
	elements := 2*n + extra
	grew, bound := live()-empty, int64(1.3*56*float64(elements))
	t.Logf("after the base rebuild: live heap grew %d B (%.2f x 56 B an element, bound 1.3)", grew, float64(grew)/56/float64(elements))
	if grew > bound {
		t.Fatalf("after the base rebuild the datasets hold %d bytes of live heap, want at most %d: the replaced array is still pinned", grew, bound)
	}
	partition("distance 5 rebuilt", 5, elements, live())
}

// TestCatalogBaseRebuildRacesReaders: every base (d = 0) build replaces the
// generation's element slice with the copy it indexed. Readers that take the
// slice while such builds come and go — DeltaView over a pinned distance
// variant (a distance join composing its delta), Snapshot, a partition build
// — must each see the whole dataset, and (under -race) take the header under
// the catalog lock.
func TestCatalogBaseRebuildRacesReaders(t *testing.T) {
	const n = 3000
	ctx := context.Background()
	c := NewCatalog(1, 0)
	c.Put("ds", elemsN(n, 9))
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
	// The one index slot stays pinned by a distance variant, so the base
	// variant is evicted at every release and built again at every acquire.
	pinned, err := c.Acquire(ctx, "ds", 7)
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Release()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, read := range []func() bool{
		func() bool {
			base, _, _ := c.DeltaView(pinned)
			return whole(base)
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
	before := c.Stats().Builds
	for round := 0; round < 30; round++ {
		h, err := c.Acquire(ctx, "ds", 0)
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	close(done)
	wg.Wait()
	if st := c.Stats(); st.Builds-before < 30 {
		t.Fatalf("the base variant was built %d times in 30 acquisitions, want every time: %+v", st.Builds-before, st)
	}
}
