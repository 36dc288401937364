package storage

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestViewCountsLikeRead: every View is counted as a read of one page of
// PageSize() bytes, classified sequential or random by the page before it —
// on a MemStore and on a reader of one — and hands out the store's own slice.
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
			m := NewMemStore(256)
			fillStore(t, m, 10)
			vw := open.view(m)
			before := vw.Stats()
			for _, id := range order {
				page, err := vw.View(id)
				if err != nil {
					t.Fatal(err)
				}
				if &page[0] != &m.pages[id][0] {
					t.Fatalf("page %d was copied, not viewed", id)
				}
			}
			// 0 seek, 1 2 stream, 7 seek, 8 streams, 3 3 4: seek, seek, stream.
			want := Stats{Reads: 8, SeqReads: 4, RandReads: 4, BytesRead: 8 * 256}
			if got := vw.Stats().Sub(before); got != want {
				t.Fatalf("views counted %v, want %v", got, want)
			}
			if _, err := vw.View(10); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("out-of-range view: %v", err)
			}
		})
	}
}

// TestLRU drives the cache over a store and over a reader of one: hits,
// misses, eviction order and store traffic; pages handed out by reference;
// appends through the cache reach the store; Reset leaves a cold cache of the
// new capacity over the new store.
func TestLRU(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(*MemStore) Store
	}{
		{"by-reference", func(m *MemStore) Store { return m }},
		{"reader", func(m *MemStore) Store { return m.OpenReader() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := NewMemStore(256)
			fillStore(t, mem, 8)
			under := tc.wrap(mem)
			c := NewLRU(under, 3)
			view := func(id PageID) []geom.Element {
				t.Helper()
				page, err := c.View(id)
				if err != nil {
					t.Fatal(err)
				}
				if len(page) != 1 || page[0].ID != uint64(id) {
					t.Fatalf("page %d has wrong contents", id)
				}
				if &page[0] != &mem.pages[id][0] {
					t.Fatalf("page %d was copied, not held by reference", id)
				}
				return page
			}
			// 0 1 2 miss; 0 hits; 3 evicts 1 (least recent); 1 misses again
			// and evicts 2; 0 and 3 still hit.
			for _, id := range []PageID{0, 1, 2, 0, 3, 1, 0, 3} {
				view(id)
			}
			if got := under.Stats().Reads; got != 5 {
				t.Fatalf("store saw %d reads, want the 5 misses of 8 views", got)
			}
			if _, err := c.View(99); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("out-of-range view: %v", err)
			}

			// Appends go to the store: a reader refuses them, a store takes
			// the page at its end.
			id, err := c.Append([]geom.Element{{ID: 8}})
			if tc.name == "reader" {
				if !errors.Is(err, ErrReadOnly) {
					t.Fatalf("append through a cache over a reader: %v", err)
				}
			} else if err != nil || id != 8 || mem.NumPages() != 9 {
				t.Fatalf("append through the cache: id %d, err %v, %d pages", id, err, mem.NumPages())
			}

			// Reset: cold, re-sized, re-pointed.
			other := NewMemStore(256)
			fillStore(t, other, 8)
			mem = other
			under = tc.wrap(other)
			c.Reset(under, 1)
			view(4)
			view(5) // evicts 4: capacity is 1 now
			view(4)
			if got := under.Stats().Reads; got != 3 {
				t.Fatalf("after Reset: %d reads of the new store, want 3 misses", got)
			}

			// No capacity, no caching: every view reaches the store.
			c.Reset(under, 0)
			before := under.Stats()
			view(6)
			view(6)
			if got := under.Stats().Sub(before).Reads; got != 2 {
				t.Fatalf("capacity 0 cached a page: %d store reads, want 2", got)
			}
		})
	}
}

// TestElementPageByReference: a page appended to a MemStore is the caller's
// slice, not a copy of it — through the store, a reader of it and a cold or
// warm LRU over one — every access is counted as one page, and nothing
// writes to the caller's elements.
func TestElementPageByReference(t *testing.T) {
	const pageSize = 512
	per := ElementsPerPage(pageSize)
	src := randomElements(rand.New(rand.NewSource(11)), 3*per)
	orig := slices.Clone(src)
	unit := func(id PageID) []geom.Element {
		if id == 3 {
			return nil // a page that only occupies space
		}
		return src[int(id)*per : (int(id)+1)*per]
	}
	st := NewMemStore(pageSize)
	for id := PageID(0); id < 4; id++ {
		if _, err := st.Append(unit(id)); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Stats(); s.Writes != 4 || s.BytesWritten != 4*pageSize {
		t.Fatalf("four appends counted %v", s)
	}

	order := []PageID{0, 1, 2, 0, 1, 3, 2}
	for _, v := range []struct {
		name  string
		st    Store
		reads uint64
	}{
		{"store", st, uint64(len(order))},
		{"reader", st.OpenReader(), uint64(len(order))},
		{"lru", NewLRU(st.OpenReader(), 3), 5}, // the second 0 and 1 hit
	} {
		before := v.st.Stats()
		for _, id := range order {
			elems, err := v.st.View(id)
			if err != nil || len(elems) != len(unit(id)) {
				t.Fatalf("%s: page %d: %d elements, err %v", v.name, id, len(elems), err)
			}
			if len(elems) > 0 && &elems[0] != &unit(id)[0] {
				t.Fatalf("%s: page %d was copied, not kept", v.name, id)
			}
		}
		if got := v.st.Stats().Sub(before); got.Reads != v.reads || got.BytesRead != v.reads*pageSize {
			t.Fatalf("%s: %d views counted %v, want %d page reads", v.name, len(order), got, v.reads)
		}
	}
	if !slices.Equal(src, orig) {
		t.Fatal("the caller's elements were written to")
	}
}

// TestLRUWarmByReferenceAllocFree: over an in-memory store, a cache that has
// seen its working set once — through evictions and across Reset — allocates
// nothing.
func TestLRUWarmByReferenceAllocFree(t *testing.T) {
	mem := NewMemStore(256)
	elems := randomElements(rand.New(rand.NewSource(5)), 64)
	for id := 0; id < 64; id += 2 {
		fillStore(t, mem, 1)
		if _, err := mem.Append(elems[id : id+2]); err != nil {
			t.Fatal(err)
		}
	}
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
