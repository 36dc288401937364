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

// TestInjectedReadFaultsSurface: a faultinject-wrapped store hands no page out
// by reference — as bytes or as elements — and keeps none so, and neither do
// its readers, so builds, joins and range queries over it take the encoded
// copy-in path — through Write and Read, where the faults are. A scripted read
// error must come back from Join (sequential and parallel) and RangeQuery as
// the injected error, and scripted slow reads must be waited for, with the
// answer still right.
func TestInjectedReadFaultsSurface(t *testing.T) {
	a := datagen.Uniform(datagen.Config{N: 1200, Seed: 91, MaxSide: 12})
	b := datagen.Uniform(datagen.Config{N: 1200, Seed: 92, MaxSide: 12})
	icfg := core.IndexConfig{World: datagen.DefaultWorld(), UnitCapacity: 40, NodeCapacity: 8}
	build := func(sc *faultinject.Scenario) (ia, ib *core.Index) {
		t.Helper()
		st := sc.WrapStore(storage.NewMemStore(0))
		// Were WriteElements or ViewElements promoted, the build would keep
		// pages as elements and the join would take them without ever passing
		// the wrapper's Read and its countdown.
		if _, ok := st.(storage.ElementViewer); ok {
			t.Fatal("a fault-wrapped store hands pages out by reference: its read faults would never fire")
		}
		if _, ok := st.(storage.ElementWriter); ok {
			t.Fatal("a fault-wrapped store keeps element pages by reference: its write faults would never fire")
		}
		for _, rd := range storage.OpenReaders(st, 2) {
			if _, ok := rd.(storage.ElementViewer); ok {
				t.Fatal("a reader of a fault-wrapped store hands pages out by reference")
			}
		}
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
	_, err := core.Join(ia, ib, core.JoinConfig{Concurrent: true}, func(x, y geom.Element) {
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
