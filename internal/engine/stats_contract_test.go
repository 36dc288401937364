package engine_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/engine/inmem"
	"repro/internal/geom"
	"repro/internal/naive"
	"repro/internal/storage"
)

// TestStatsContract pins what every engine's Stats record guarantees, whatever
// the engine books into it: the derived totals are the sums of their parts,
// PagesRead mirrors the join-phase reads, Refinements counts the pairs that
// were emitted and no more than the Candidates tested, and IndexedPages is
// non-zero exactly for the engines that build paged indexes, which (unsharded)
// also count the pages their build wrote and their join read. The built-ins
// get all of it from one skeleton (builtin.JoinStream); the sharded forms, run
// at a fixed tile count, book their own record and must agree. A Prebuilt run — nil element slices, as the
// serving catalog calls it — reports no build and the built run's pairs.
func TestStatsContract(t *testing.T) {
	ctx := context.Background()
	paged := map[string]bool{
		engine.Transformers: true, engine.PBSM: true, engine.RTree: true,
		engine.GIPSY: true, engine.ShardTransformers: true,
	}
	w := enginetest.Workloads(500, 9800)[0]
	enginetest.Inflate(w.A, 15) // a few hundred pairs
	built := map[string][]geom.Pair{}
	for _, j := range engine.All() {
		name := j.Name()
		opt := engine.Options{}
		if isShardName(name) {
			opt.ShardTiles = 7
		}
		res, err := engine.Collect(ctx, j, enginetest.Copy(w.A), enginetest.Copy(w.B), opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		built[name] = res.Pairs
		st := res.Stats
		if st.BuildTotal != st.BuildWall+st.BuildIOTime {
			t.Errorf("%s: BuildTotal %v != BuildWall %v + BuildIOTime %v", name, st.BuildTotal, st.BuildWall, st.BuildIOTime)
		}
		if st.JoinTotal != st.JoinWall+st.JoinIOTime {
			t.Errorf("%s: JoinTotal %v != JoinWall %v + JoinIOTime %v", name, st.JoinTotal, st.JoinWall, st.JoinIOTime)
		}
		if st.PagesRead != st.JoinIO.Reads {
			t.Errorf("%s: PagesRead %d != JoinIO.Reads %d", name, st.PagesRead, st.JoinIO.Reads)
		}
		if st.Refinements == 0 || st.Refinements != uint64(len(res.Pairs)) {
			t.Errorf("%s: Refinements %d, %d pairs collected", name, st.Refinements, len(res.Pairs))
		}
		if (st.IndexedPages > 0) != paged[name] {
			t.Errorf("%s: IndexedPages %d, paged index expected: %v", name, st.IndexedPages, paged[name])
		}
		if st.Candidates < st.Refinements {
			t.Errorf("%s: %d candidates tested for %d pairs", name, st.Candidates, st.Refinements)
		}
		// A sharded form books its tiles' builds inside its join phase.
		if paged[name] && !isShardName(name) && (st.BuildIO.Writes == 0 || st.JoinIO.Reads == 0) {
			t.Errorf("%s: build wrote %d pages, join read %d", name, st.BuildIO.Writes, st.JoinIO.Reads)
		}
	}

	index := func(elems []geom.Element) *core.Index {
		idx, _, err := core.BuildIndex(storage.NewMemStore(0), enginetest.Copy(elems), core.IndexConfig{})
		if err != nil {
			t.Fatal(err)
		}
		return idx
	}
	for name, pre := range map[string]*engine.Prebuilt{
		engine.Transformers: {A: index(w.A), B: index(w.B)},
		engine.InMem:        {Partition: inmem.Partition(w.A, w.B, inmem.Config{})},
	} {
		res, err := engine.Run(ctx, name, nil, nil, engine.Options{Prebuilt: pre})
		if err != nil {
			t.Fatalf("%s prebuilt: %v", name, err)
		}
		if st := res.Stats; st.BuildTotal != 0 || st.BuildIO != (storage.Stats{}) || st.IndexedPages != 0 {
			t.Errorf("%s prebuilt: reports a build: %+v", name, st)
		}
		if !naive.Equal(res.Pairs, enginetest.CopyPairs(built[name])) {
			t.Errorf("%s prebuilt: %d pairs, the built run has %d", name, len(res.Pairs), len(built[name]))
		}
		// An engine handed structures it does not understand builds as usual.
		other := engine.PBSM
		got, err := engine.Run(ctx, other, enginetest.Copy(w.A), enginetest.Copy(w.B), engine.Options{Prebuilt: pre})
		if err != nil || !naive.Equal(got.Pairs, enginetest.CopyPairs(built[other])) || got.Stats.IndexedPages == 0 {
			t.Errorf("%s handed %s's prebuilt structures: err=%v, %d pairs, %d indexed pages", other, name, err, len(got.Pairs), got.Stats.IndexedPages)
		}
	}
}
