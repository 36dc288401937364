package core_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/naive"
	"repro/internal/storage"
)

// TestInjectedReadFaultsSurface: builds, joins and range queries over a
// faultinject-wrapped store take the path they take over a bare one — one
// Append per page written, one View per page read — and the faults sit on it.
// A scripted write error fires per page, not per allocation and write; a
// scripted read error must come back from Join (sequential and parallel) and
// RangeQuery as the injected error, and scripted slow reads must be waited
// for, with the answer still right.
func TestInjectedReadFaultsSurface(t *testing.T) {
	a := datagen.Uniform(datagen.Config{N: 1200, Seed: 91, MaxSide: 12})
	b := datagen.Uniform(datagen.Config{N: 1200, Seed: 92, MaxSide: 12})
	icfg := core.IndexConfig{World: datagen.DefaultWorld(), UnitCapacity: 40, NodeCapacity: 8}

	_, bs, err := core.BuildIndex(storage.NewMemStore(0), append([]geom.Element(nil), a...), icfg)
	if err != nil {
		t.Fatal(err)
	}
	pages := int64(bs.DataPages + bs.MetaPages)
	for _, after := range []int64{pages - 1, pages} {
		st := faultinject.New(faultinject.Fault{Op: faultinject.OpWriteError, After: after, Times: 1}).WrapStore(storage.NewMemStore(0))
		_, wbs, err := core.BuildIndex(st, append([]geom.Element(nil), a...), icfg)
		if fails := after < pages; errors.Is(err, faultinject.ErrInjected) != fails {
			t.Fatalf("a write error after %d of a %d-page build: %v", after, pages, err)
		}
		if err == nil && wbs.IO != bs.IO {
			t.Fatalf("a fault-wrapped build counted %v, a bare one %v", wbs.IO, bs.IO)
		}
	}

	build := func(sc *faultinject.Scenario) (ia, ib *core.Index) {
		t.Helper()
		st := sc.WrapStore(storage.NewMemStore(0))
		ia, _, err := core.BuildIndex(st, append([]geom.Element(nil), a...), icfg)
		if err != nil {
			t.Fatal(err)
		}
		ib, _, err = core.BuildIndex(st, append([]geom.Element(nil), b...), icfg)
		if err != nil {
			t.Fatal(err)
		}
		return ia, ib
	}
	query := geom.Box{Lo: geom.Point{100, 100, 100}, Hi: geom.Point{600, 600, 600}}

	for _, workers := range []int{1, 4} {
		ia, ib := build(faultinject.New(faultinject.Fault{Op: faultinject.OpReadError, After: 4, Times: 1}))
		_, err := core.Join(ia, ib, core.JoinConfig{Parallelism: workers}, func(geom.Element, geom.Element) {})
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("workers=%d: join over a store failing its fifth read returned %v", workers, err)
		}
	}
	ia, _ := build(faultinject.New(faultinject.Fault{Op: faultinject.OpReadError, After: 2, Times: 1}))
	if _, _, err := ia.RangeQuery(query, nil); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("range query over a store failing its third read returned %v", err)
	}

	const slowReads, delay = 10, 3 * time.Millisecond
	ia, ib := build(faultinject.New(faultinject.Fault{Op: faultinject.OpSlowRead, Times: slowReads, Delay: delay}))
	var got []geom.Pair
	start := time.Now()
	_, err = core.Join(ia, ib, core.JoinConfig{}, func(x, y geom.Element) {
		got = append(got, geom.Pair{A: x.ID, B: y.ID})
	})
	if took := time.Since(start); err != nil || took < slowReads*delay {
		t.Fatalf("join over %d reads slowed by %v: err=%v after %v", slowReads, delay, err, took)
	}
	if !naive.Equal(got, naive.Join(a, b)) {
		t.Fatal("join over slow reads disagrees with naive")
	}
	ia, _ = build(faultinject.New(faultinject.Fault{Op: faultinject.OpSlowRead, Times: 2, Delay: 10 * delay}))
	start = time.Now()
	elems, rs, err := ia.RangeQuery(query, nil)
	if took := time.Since(start); err != nil || took < 20*delay || rs.UnitsRead < 2 {
		t.Fatalf("range query over 2 reads slowed by %v: err=%v after %v, %d units read", 10*delay, err, took, rs.UnitsRead)
	}
	want := 0
	for _, e := range a {
		if e.Box.Intersects(query) {
			want++
		}
	}
	if len(elems) != want {
		t.Fatalf("range query over slow reads found %d elements, want %d", len(elems), want)
	}
}
