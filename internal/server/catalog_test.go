package server

import (
	"context"
	"errors"
	"sync"
	"testing"

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
	if _, _, _, err := c.VersionEpoch("nope"); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("VersionEpoch err = %v, want ErrUnknownDataset", err)
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
