package faultinject

import (
	"fmt"
	"time"

	"repro/internal/storage"
)

// WrapStore wraps a page store with the scenario's storage faults: reads
// fail at the scripted operation counts (OpReadError), crawl (OpSlowRead),
// and writes/allocations fail (OpWriteError). Readers opened from the
// wrapped store share the scenario's triggers, so a fault scripted "after
// 100 reads" counts reads across every concurrent worker — exactly how one
// flaky device behaves under a parallel join.
func (s *Scenario) WrapStore(st storage.Store) storage.Store {
	if s == nil {
		return st
	}
	return &faultStore{st: st, sc: s}
}

// StoreFactory is a catalog store factory (server.Config.StoreFactory shape)
// producing scenario-wrapped in-memory stores. OpBuildFail triggers per
// factory call: a triggered build gets a store whose writes fail before the
// first page lands, failing that build attempt in its entirety — the shape
// of a build landing on a briefly unavailable backend, and the fault the
// catalog's build retry exists for (a build that still fails installs
// nothing, so the previous version goes on serving).
func (s *Scenario) StoreFactory(pageSize int) storage.Store {
	st := storage.Store(storage.NewMemStore(pageSize))
	if _, fire := s.fire(OpBuildFail); fire {
		return &brokenStore{st: st}
	}
	return s.WrapStore(st)
}

// faultStore injects scenario faults around an inner store.
type faultStore struct {
	st storage.Store
	sc *Scenario
}

func (f *faultStore) PageSize() int { return f.st.PageSize() }

func (f *faultStore) Alloc(n int) (storage.PageID, error) {
	if _, fire := f.sc.fire(OpWriteError); fire {
		return 0, fmt.Errorf("faultinject: alloc %d pages: %w", n, ErrInjected)
	}
	return f.st.Alloc(n)
}

func (f *faultStore) Write(id storage.PageID, data []byte) error {
	if _, fire := f.sc.fire(OpWriteError); fire {
		return fmt.Errorf("faultinject: write page %d: %w", id, ErrInjected)
	}
	return f.st.Write(id, data)
}

func (f *faultStore) Read(id storage.PageID, buf []byte) error {
	if fault, fire := f.sc.fire(OpSlowRead); fire {
		time.Sleep(fault.Delay)
	}
	if _, fire := f.sc.fire(OpReadError); fire {
		return fmt.Errorf("faultinject: read page %d: %w", id, ErrInjected)
	}
	return f.st.Read(id, buf)
}

func (f *faultStore) NumPages() int { return f.st.NumPages() }

func (f *faultStore) Stats() storage.Stats { return f.st.Stats() }

// OpenReader implements storage.Store: a view of the inner store that shares
// the scenario's triggers.
func (f *faultStore) OpenReader() storage.Store {
	return &faultStore{st: f.st.OpenReader(), sc: f.sc}
}

// brokenStore fails every write and allocation: an index build attempt on it
// cannot get a single page down. Reads pass through (nothing was written).
type brokenStore struct {
	st storage.Store
}

func (b *brokenStore) PageSize() int { return b.st.PageSize() }

func (b *brokenStore) Alloc(n int) (storage.PageID, error) {
	return 0, fmt.Errorf("faultinject: alloc %d pages on failed build: %w", n, ErrInjected)
}

func (b *brokenStore) Write(id storage.PageID, data []byte) error {
	return fmt.Errorf("faultinject: write page %d on failed build: %w", id, ErrInjected)
}

func (b *brokenStore) Read(id storage.PageID, buf []byte) error { return b.st.Read(id, buf) }

func (b *brokenStore) NumPages() int { return b.st.NumPages() }

func (b *brokenStore) Stats() storage.Stats { return b.st.Stats() }

func (b *brokenStore) OpenReader() storage.Store { return &brokenStore{st: b.st.OpenReader()} }
