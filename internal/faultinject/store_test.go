package faultinject

import (
	"errors"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// TestEveryStoreOpensIndependentViews holds every Store the tree constructs —
// the two real stores, their views, a cache over each, and this package's two
// wrappers — to what the join relies on from OpenReader: a view counts from
// zero and classifies its own stream as sequential or random, whatever its
// parent and its sibling read meanwhile; the parent's counters see none of a
// view's reads; a view of a view is a view; and no view takes a Write or an
// Alloc.
func TestEveryStoreOpensIndependentViews(t *testing.T) {
	const pageSize, pages = 256, 8
	mem := func() *storage.MemStore {
		m := storage.NewMemStore(pageSize)
		fill(t, m, pages)
		return m
	}
	file := func() *storage.FileStore {
		f, err := storage.NewFileStore(filepath.Join(t.TempDir(), "pages.db"), pageSize)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		fill(t, f, pages)
		return f
	}
	for _, tc := range []struct {
		name    string
		st      storage.Store
		refusal error // what a view answers a Write or an Alloc with
	}{
		{"mem", mem(), storage.ErrReadOnly},
		{"mem-reader", mem().OpenReader(), storage.ErrReadOnly},
		{"file", file(), storage.ErrReadOnly},
		{"file-reader", file().OpenReader(), storage.ErrReadOnly},
		{"lru-mem", storage.NewLRU(mem(), 4), storage.ErrReadOnly},
		{"lru-file", storage.NewLRU(file(), 4), storage.ErrReadOnly},
		{"fault", New().WrapStore(mem()), storage.ErrReadOnly},
		{"broken", &brokenStore{st: mem()}, ErrInjected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, buf := tc.st, make([]byte, pageSize)
			read := func(s storage.Store, id int) {
				t.Helper()
				if err := s.Read(storage.PageID(id), buf); err != nil {
					t.Fatal(err)
				}
				if buf[0] != byte(id) || buf[pageSize-1] != byte(id) {
					t.Fatalf("page %d read back with the wrong contents", id)
				}
			}
			read(st, 2) // the parent has a history the views must not inherit
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
				if err := v.Write(0, buf); !errors.Is(err, tc.refusal) {
					t.Errorf("Write on a view: %v, want %v", err, tc.refusal)
				}
				if _, err := v.Alloc(1); !errors.Is(err, tc.refusal) {
					t.Errorf("Alloc on a view: %v, want %v", err, tc.refusal)
				}
				if v.NumPages() != pages || v.Stats().Writes != 0 {
					t.Errorf("a refused write left %d pages, %d writes counted", v.NumPages(), v.Stats().Writes)
				}
			}
		})
	}
}

// fill allocates n pages in st, page i holding byte(i) throughout.
func fill(t *testing.T, st storage.Store, n int) {
	t.Helper()
	if _, err := st.Alloc(n); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, st.PageSize())
	for i := 0; i < n; i++ {
		for j := range buf {
			buf[j] = byte(i)
		}
		if err := st.Write(storage.PageID(i), buf); err != nil {
			t.Fatal(err)
		}
	}
}
