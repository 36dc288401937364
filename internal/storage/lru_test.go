package storage

import (
	"errors"
	"testing"
)

// TestViewCountsLikeRead: a page taken by reference is accounted exactly as a
// page copied out — same counters, same sequential/random classification —
// on a MemStore and on a reader of one, and the bytes are the store's own.
func TestViewCountsLikeRead(t *testing.T) {
	order := []PageID{0, 1, 2, 7, 8, 3, 3, 4}
	for _, open := range []struct {
		name string
		view func(*MemStore) Store
	}{
		{"store", func(m *MemStore) Store { return m }},
		{"reader", func(m *MemStore) Store { return m.OpenReader() }},
	} {
		t.Run(open.name, func(t *testing.T) {
			byRead, byView := NewMemStore(256), NewMemStore(256)
			fillStore(t, byRead, 10)
			fillStore(t, byView, 10)
			rd, vw := open.view(byRead), open.view(byView)
			rd.ResetStats()
			vw.ResetStats()
			buf := make([]byte, 256)
			for _, id := range order {
				if err := rd.Read(id, buf); err != nil {
					t.Fatal(err)
				}
				page, err := ViewPage(vw, id, nil)
				if err != nil {
					t.Fatal(err)
				}
				if &page[0] != &byView.pages[id][0] {
					t.Fatalf("page %d was copied, not viewed", id)
				}
			}
			if rd.Stats() != vw.Stats() || vw.Stats().Reads != uint64(len(order)) {
				t.Fatalf("read counted %v, view counted %v", rd.Stats(), vw.Stats())
			}
			if _, err := ViewPage(vw, 10, nil); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("out-of-range view: %v", err)
			}
		})
	}
}

// TestLRU drives the cache over a store it can view and over one it can only
// copy from (plainStore hides View): identical contents, hits, misses,
// eviction order and store traffic either way; pages by reference over the
// first, in buffers of the cache's own over the second; writes stay coherent;
// Reset leaves a cold cache of the new capacity over the new store.
func TestLRU(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*MemStore) Store
	}{
		{"by-reference", func(m *MemStore) Store { return m }},
		{"copy-in", func(m *MemStore) Store { return plainStore{m} }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := NewMemStore(256)
			fillStore(t, mem, 8)
			mem.ResetStats()
			c := NewLRU(tc.wrap(mem), 3)
			view := func(id PageID) []byte {
				t.Helper()
				page, err := c.View(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(page) != 256 || page[0] != byte(id) || page[255] != byte(id) {
					t.Fatalf("page %d has wrong contents", id)
				}
				return page
			}
			// 0 1 2 miss; 0 hits; 3 evicts 1 (least recent); 1 misses again
			// and evicts 2; 0 and 3 still hit.
			var first []byte
			for i, id := range []PageID{0, 1, 2, 0, 3, 1, 0, 3} {
				page := view(id)
				if i == 0 {
					first = page
				}
			}
			if got := mem.Stats().Reads; got != 5 {
				t.Fatalf("store saw %d reads, want the 5 misses of 8 views", got)
			}
			if byRef := &first[0] == &mem.pages[0][0]; byRef != (tc.name == "by-reference") {
				t.Fatalf("page held by reference: %v", byRef)
			}
			// A page handed out stays what it was while others come and go.
			if first[0] != 0 || &view(0)[0] != &first[0] {
				t.Fatal("cached page 0 moved or changed under eviction traffic")
			}

			// Read copies out of the same cache; a short buffer is refused.
			buf := make([]byte, 256)
			if err := c.Read(3, buf); err != nil || buf[17] != 3 {
				t.Fatalf("Read(3): %v, byte %d", err, buf[17])
			}
			if err := c.Read(3, buf[:10]); !errors.Is(err, ErrPageSize) {
				t.Fatalf("short-buffer read: %v", err)
			}
			if _, err := c.View(99); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("out-of-range view: %v", err)
			}

			// Write-through keeps a cached page current.
			for i := range buf {
				buf[i] = 0xEE
			}
			if err := c.Write(3, buf); err != nil {
				t.Fatal(err)
			}
			if page, _ := c.View(3); page[5] != 0xEE || mem.pages[3][5] != 0xEE {
				t.Fatal("write did not reach the cached page and the store")
			}

			// Reset: cold, re-sized, re-pointed.
			other := NewMemStore(256)
			fillStore(t, other, 8)
			other.ResetStats()
			c.Reset(tc.wrap(other), 1)
			view(4)
			view(5) // evicts 4: capacity is 1 now
			view(4)
			if got := other.Stats().Reads; got != 3 {
				t.Fatalf("after Reset: %d reads of the new store, want 3 misses", got)
			}

			// No capacity, no caching: every view reaches the store.
			c.Reset(tc.wrap(other), 0)
			other.ResetStats()
			view(6)
			view(6)
			if other.Stats().Reads != 2 {
				t.Fatalf("capacity 0 cached a page: %d store reads, want 2", other.Stats().Reads)
			}
		})
	}
}

// TestLRUWarmByReferenceAllocFree: over an in-memory store, a cache that has
// seen its working set once — through evictions and across Reset — allocates
// nothing.
func TestLRUWarmByReferenceAllocFree(t *testing.T) {
	mem := NewMemStore(256)
	fillStore(t, mem, 64)
	c := NewLRU(mem, 16)
	scan := func() {
		c.Reset(mem, 16)
		for id := PageID(0); id < 64; id++ {
			if _, err := c.View(id); err != nil {
				t.Fatal(err)
			}
			if _, err := c.View(id / 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan()
	if avg := testing.AllocsPerRun(10, scan); avg != 0 {
		t.Fatalf("warm cache allocates %.1f times per scan, want 0", avg)
	}
}
