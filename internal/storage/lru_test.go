package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geom"
)

// plainStore hides the by-reference methods (ViewElements, WriteElements) of
// the store it wraps, so pages go through it encoded, by Write and Read — the
// path a FileStore or a fault-injecting wrapper takes.
type plainStore struct{ Store }

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
			buf := make([]byte, 256)
			for _, id := range order {
				if err := rd.Read(id, buf); err != nil {
					t.Fatal(err)
				}
				_, page, err := vw.(ElementViewer).ViewElements(id)
				if err != nil {
					t.Fatal(err)
				}
				if &page[0] != &byView.pages[id].data[0] {
					t.Fatalf("page %d was copied, not viewed", id)
				}
			}
			if rd.Stats() != vw.Stats() || vw.Stats().Reads != uint64(len(order)) {
				t.Fatalf("read counted %v, view counted %v", rd.Stats(), vw.Stats())
			}
			if _, _, err := vw.(ElementViewer).ViewElements(10); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("out-of-range view: %v", err)
			}
		})
	}
}

// TestLRU drives the cache over a store it can view and over one it can only
// copy from (plainStore hides ViewElements): identical contents, hits, misses,
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
			c := NewLRU(tc.wrap(mem), 3)
			view := func(id PageID) []byte {
				t.Helper()
				_, page, err := c.ViewElements(id)
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
			if byRef := &first[0] == &mem.pages[0].data[0]; byRef != (tc.name == "by-reference") {
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
			if _, _, err := c.ViewElements(99); !errors.Is(err, ErrPageOutOfRange) {
				t.Fatalf("out-of-range view: %v", err)
			}

			// Write-through keeps a cached page current.
			for i := range buf {
				buf[i] = 0xEE
			}
			if err := c.Write(3, buf); err != nil {
				t.Fatal(err)
			}
			if _, page, _ := c.ViewElements(3); page[5] != 0xEE || mem.pages[3].data[5] != 0xEE {
				t.Fatal("write did not reach the cached page and the store")
			}

			// Reset: cold, re-sized, re-pointed.
			other := NewMemStore(256)
			fillStore(t, other, 8)
			c.Reset(tc.wrap(other), 1)
			view(4)
			view(5) // evicts 4: capacity is 1 now
			view(4)
			if got := other.Stats().Reads; got != 3 {
				t.Fatalf("after Reset: %d reads of the new store, want 3 misses", got)
			}

			// No capacity, no caching: every view reaches the store.
			c.Reset(tc.wrap(other), 0)
			before := other.Stats()
			view(6)
			view(6)
			if got := other.Stats().Sub(before).Reads; got != 2 {
				t.Fatalf("capacity 0 cached a page: %d store reads, want 2", got)
			}
		})
	}
}

// TestElementPageByReference: a data page written through WriteElementPage
// into a MemStore is the caller's slice, not a copy of it — through the store,
// a reader of it and a cold or warm LRU over one; every access is counted as
// the same access to an encoded page is; a byte Read encodes it on demand; and a later byte Write replaces it, in a cache that held it too.
func TestElementPageByReference(t *testing.T) {
	const pageSize = 512
	per := ElementsPerPage(pageSize)
	src := randomElements(rand.New(rand.NewSource(11)), 3*per)
	orig := slices.Clone(src)
	unit := func(id PageID) []geom.Element {
		if id == 3 {
			return nil // allocated, never written
		}
		return src[int(id)*per : (int(id)+1)*per]
	}
	byRef, encoded := NewMemStore(pageSize), NewMemStore(pageSize)
	buf := make([]byte, pageSize)
	for _, st := range []Store{byRef, plainStore{encoded}} {
		if _, err := st.Alloc(4); err != nil {
			t.Fatal(err)
		}
		for _, id := range []PageID{0, 2, 1} {
			if err := WriteElementPage(st, id, unit(id), buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	if byRef.Stats() != encoded.Stats() || byRef.Stats().BytesWritten != 3*pageSize {
		t.Fatalf("writes by reference counted %v, encoded %v", byRef.Stats(), encoded.Stats())
	}
	if byRef.pages[0].data != nil || encoded.pages[0].elems != nil {
		t.Fatal("the page went down in the wrong form")
	}
	if err := byRef.WriteElements(3, orig[:per+1]); err == nil {
		t.Fatal("a page of more elements than fit was accepted")
	}

	order := []PageID{0, 1, 2, 0, 1, 3, 2}
	for _, v := range []struct {
		name     string
		ref, enc Store
	}{
		{"store", byRef, encoded},
		{"reader", byRef.OpenReader(), encoded.OpenReader()},
		{"lru", NewLRU(byRef.OpenReader(), 2), NewLRU(encoded.OpenReader(), 2)},
	} {
		for _, id := range order {
			elems, page, err := v.ref.(ElementViewer).ViewElements(id)
			if err != nil || page != nil || len(elems) != len(unit(id)) {
				t.Fatalf("%s: page %d: %d elements, page %v, err %v", v.name, id, len(elems), page != nil, err)
			}
			if len(elems) > 0 && &elems[0] != &unit(id)[0] {
				t.Fatalf("%s: page %d was copied, not kept", v.name, id)
			}
			got, err := ReadElementPage(v.enc, id, nil, buf)
			if err != nil || !slices.Equal(got, elems) {
				t.Fatalf("%s: page %d decodes to other elements than were kept (err %v)", v.name, id, err)
			}
		}
		if v.ref.Stats() != v.enc.Stats() || v.ref.Stats().Reads == 0 {
			t.Fatalf("%s: by reference counted %v, encoded %v", v.name, v.ref.Stats(), v.enc.Stats())
		}
	}

	// Generic consumers read bytes: the page encodes on demand.
	want, got := make([]byte, pageSize), make([]byte, pageSize)
	for id := PageID(0); id < 4; id++ {
		if err := EncodeElementsPage(want, unit(id)); err != nil {
			t.Fatal(err)
		}
		if err := byRef.Read(id, got); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("Read of page %d differs from its encoding (err %v)", id, err)
		}
	}

	// A byte write replaces the kept elements, in the store and in a cache
	// holding them, and leaves the caller's slice alone.
	c := NewLRU(byRef, 2)
	if _, _, err := c.ViewElements(1); err != nil {
		t.Fatal(err)
	}
	if err := EncodeElementsPage(want, unit(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(1, want); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]Store{"cache": c, "store": byRef} {
		elems, page, err := st.(ElementViewer).ViewElements(1)
		if err != nil || elems != nil || !bytes.Equal(page, want) {
			t.Fatalf("%s: page 1 after a byte write: %d elements kept, err %v", name, len(elems), err)
		}
		if got, err := ReadElementPage(st, 1, nil, nil); err != nil || !slices.Equal(got, unit(0)) {
			t.Fatalf("%s: page 1 does not read back what was written (err %v)", name, err)
		}
	}
	if !slices.Equal(src, orig) {
		t.Fatal("the caller's elements were written to")
	}
}

// TestLRUWarmByReferenceAllocFree: over an in-memory store, a cache that has
// seen its working set once — through evictions and across Reset — allocates
// nothing, whether the pages are held as bytes or as elements.
func TestLRUWarmByReferenceAllocFree(t *testing.T) {
	mem := NewMemStore(256)
	fillStore(t, mem, 64)
	elems := randomElements(rand.New(rand.NewSource(5)), 64)
	for id := PageID(0); id < 64; id += 2 {
		if err := mem.WriteElements(id, elems[id:id+2]); err != nil {
			t.Fatal(err)
		}
	}
	c := NewLRU(mem, 16)
	scan := func() {
		c.Reset(mem, 16)
		for id := PageID(0); id < 64; id++ {
			if _, _, err := c.ViewElements(id); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.ViewElements(id / 2); err != nil {
				t.Fatal(err)
			}
		}
	}
	scan()
	if avg := testing.AllocsPerRun(10, scan); avg != 0 {
		t.Fatalf("warm cache allocates %.1f times per scan, want 0", avg)
	}
}
