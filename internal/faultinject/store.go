package faultinject

import (
	"fmt"
	"time"

	"repro/internal/geom"
	"repro/internal/storage"
)

// WrapStore wraps a page store with the scenario's storage faults: reads
// fail at the scripted operation counts (OpReadError), crawl (OpSlowRead),
// and appends fail (OpWriteError). Pages pass through by reference both ways,
// so a wrapped store holds and reads them exactly as the one it wraps.
// Readers opened from the wrapped store share the scenario's triggers, so a
// fault scripted "after 100 reads" counts reads across every concurrent
// worker — exactly how one flaky device behaves under a parallel join.
func (s *Scenario) WrapStore(st storage.Store) storage.Store {
	if s == nil {
		return st
	}
	return &faultStore{st: st, sc: s}
}

// StoreFactory is a catalog store factory (server.Config.StoreFactory shape)
// producing scenario-wrapped in-memory stores. OpBuildFail triggers per
// factory call: a triggered build gets a store whose appends fail before the
// first page lands, failing that build in its entirety — the shape of a build
// landing on a briefly unavailable backend. The catalog makes one attempt per
// build, so the upload or merge fails and installs nothing, and the previous
// version goes on serving.
func (s *Scenario) StoreFactory() storage.Store {
	st := storage.Store(storage.NewMemStore(0))
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

func (f *faultStore) Append(elems []geom.Element) (storage.PageID, error) {
	if _, fire := f.sc.fire(OpWriteError); fire {
		return 0, fmt.Errorf("faultinject: append page %d: %w", f.st.NumPages(), ErrInjected)
	}
	return f.st.Append(elems)
}

func (f *faultStore) View(id storage.PageID) ([]geom.Element, error) {
	if fault, fire := f.sc.fire(OpSlowRead); fire {
		time.Sleep(fault.Delay)
	}
	if _, fire := f.sc.fire(OpReadError); fire {
		return nil, fmt.Errorf("faultinject: read page %d: %w", id, ErrInjected)
	}
	return f.st.View(id)
}

func (f *faultStore) NumPages() int { return f.st.NumPages() }

func (f *faultStore) Stats() storage.Stats { return f.st.Stats() }

// OpenReader implements storage.Store: a view of the inner store that shares
// the scenario's triggers.
func (f *faultStore) OpenReader() storage.Store {
	return &faultStore{st: f.st.OpenReader(), sc: f.sc}
}

// brokenStore fails every append: an index build attempt on it cannot get a
// single page down. Reads pass through (nothing was written).
type brokenStore struct {
	st storage.Store
}

func (b *brokenStore) PageSize() int { return b.st.PageSize() }

func (b *brokenStore) Append([]geom.Element) (storage.PageID, error) {
	return 0, fmt.Errorf("faultinject: append page %d on failed build: %w", b.st.NumPages(), ErrInjected)
}

func (b *brokenStore) View(id storage.PageID) ([]geom.Element, error) { return b.st.View(id) }

func (b *brokenStore) NumPages() int { return b.st.NumPages() }

func (b *brokenStore) Stats() storage.Stats { return b.st.Stats() }

func (b *brokenStore) OpenReader() storage.Store { return &brokenStore{st: b.st.OpenReader()} }
