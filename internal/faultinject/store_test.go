package faultinject

import (
	"errors"
	"testing"

	"repro/internal/geom"
	"repro/internal/storage"
)

// TestEveryStoreOpensIndependentViews holds every Store the tree constructs —
// the in-memory store, its views, a cache over one, and this package's two
// wrappers — to what the join relies on from OpenReader: a view counts from
// zero and classifies its own stream as sequential or random, whatever its
// parent and its sibling read meanwhile; the parent's counters see none of a
// view's reads; a view of a view is a view; every page is handed out as the
// slice it was appended from; and no view takes an Append.
func TestEveryStoreOpensIndependentViews(t *testing.T) {
	const pageSize, pages = 256, 8
	mem := func() *storage.MemStore {
		m := storage.NewMemStore(pageSize)
		fill(t, m, pages)
		return m
	}
	for _, tc := range []struct {
		name    string
		st      storage.Store
		refusal error // what a view answers an Append with
	}{
		{"mem", mem(), storage.ErrReadOnly},
		{"mem-reader", mem().OpenReader(), storage.ErrReadOnly},
		{"lru-mem", storage.NewLRU(mem(), 4), storage.ErrReadOnly},
		{"fault", New().WrapStore(mem()), storage.ErrReadOnly},
		{"broken", &brokenStore{st: mem()}, ErrInjected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := tc.st
			var first *geom.Element // page 2 as the parent hands it out
			read := func(s storage.Store, id int) {
				t.Helper()
				page, err := s.View(storage.PageID(id))
				if err != nil {
					t.Fatal(err)
				}
				if len(page) != 1 || page[0].ID != uint64(id) {
					t.Fatalf("page %d read back with the wrong contents", id)
				}
				if id == 2 && first != nil && &page[0] != first {
					t.Fatal("page 2 was copied, not handed out by reference")
				}
			}
			read(st, 2) // the parent has a history the views must not inherit
			page, _ := st.View(2)
			first = &page[0]
			before := st.Stats()
			fwd, back := st.OpenReader(), st.OpenReader()
			if fwd.Stats() != (storage.Stats{}) || back.Stats() != (storage.Stats{}) {
				t.Fatalf("views start at %v and %v, want zero", fwd.Stats(), back.Stats())
			}
			if fwd.PageSize() != pageSize || fwd.NumPages() != pages {
				t.Fatalf("view of %d pages of %d bytes, want %d of %d", fwd.NumPages(), fwd.PageSize(), pages, pageSize)
			}
			for i := 0; i < pages; i++ {
				read(fwd, i)
				read(back, pages-1-i)
				if i == 3 || i == 5 {
					read(st, i) // distinct pages: misses for the caches too
				}
			}
			if s := fwd.Stats(); s.Reads != pages || s.SeqReads != pages-1 || s.RandReads != 1 || s.BytesRead != pages*pageSize {
				t.Errorf("forward scan beside a backward one counted %v", s)
			}
			if s := back.Stats(); s.Reads != pages || s.SeqReads != 0 || s.RandReads != pages {
				t.Errorf("backward scan beside a forward one counted %v", s)
			}
			if s := st.Stats().Sub(before); s.Reads != 2 || s.Writes != 0 {
				t.Errorf("the parent counted %v for its own two reads", s)
			}
			again := fwd.OpenReader()
			read(again, 6)
			if s := again.Stats(); s.Reads != 1 || fwd.Stats().Reads != pages {
				t.Errorf("a view of a view counted %v, its parent %v", s, fwd.Stats())
			}
			for _, v := range []storage.Store{fwd, again} {
				if _, err := v.Append(nil); !errors.Is(err, tc.refusal) {
					t.Errorf("Append on a view: %v, want %v", err, tc.refusal)
				}
				if v.NumPages() != pages || v.Stats().Writes != 0 {
					t.Errorf("a refused write left %d pages, %d writes counted", v.NumPages(), v.Stats().Writes)
				}
			}
		})
	}
}

// fill appends n pages to st, page i holding one element of ID i.
func fill(t *testing.T, st storage.Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := st.Append([]geom.Element{{ID: uint64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
}
