package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/naive"
	"repro/internal/storage"
)

// parJoinPairs runs a join at the given parallelism, collecting pairs behind
// a mutex (the emit callback may run concurrently when parallelism > 1).
func parJoinPairs(t testing.TB, ia, ib *Index, cfg JoinConfig) ([]geom.Pair, JoinStats) {
	t.Helper()
	var mu sync.Mutex
	var pairs []geom.Pair
	stats, err := Join(ia, ib, cfg, func(x, y geom.Element) {
		mu.Lock()
		pairs = append(pairs, geom.Pair{A: x.ID, B: y.ID})
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return pairs, stats
}

// TestParallelMatchesSequential is the determinism gate of the parallel
// join: for a spread of workloads and knob settings, every worker count must
// produce exactly the sequential pair set (and therefore the naive ground
// truth), with the exact same Results count and no duplicates.
func TestParallelMatchesSequential(t *testing.T) {
	mixed := func(seed int64, nLeft, nRight int) []geom.Element {
		w1 := geom.Box{Lo: geom.Point{0, 0, 0}, Hi: geom.Point{400, 1000, 1000}}
		w2 := geom.Box{Lo: geom.Point{600, 0, 0}, Hi: geom.Point{1000, 1000, 1000}}
		a := datagen.Uniform(datagen.Config{N: nLeft, Seed: seed, World: w1, MaxSide: 10})
		b := datagen.Uniform(datagen.Config{N: nRight, Seed: seed + 1, World: w2, MaxSide: 10, IDBase: 1 << 20})
		return append(a, b...)
	}
	workloads := []struct {
		name string
		a, b []geom.Element
		cfg  JoinConfig
	}{
		{
			name: "uniform",
			a:    datagen.Uniform(datagen.Config{N: 2500, Seed: 41, MaxSide: 14}),
			b:    datagen.Uniform(datagen.Config{N: 2200, Seed: 42, MaxSide: 14}),
		},
		{
			name: "clustered",
			a:    datagen.DenseCluster(datagen.Config{N: 2500, Seed: 43, MaxSide: 8}),
			b:    datagen.UniformCluster(datagen.Config{N: 2500, Seed: 44, MaxSide: 8}),
		},
		{
			name: "contrasting-density",
			a:    datagen.Uniform(datagen.Config{N: 60, Seed: 45, MaxSide: 10}),
			b:    datagen.MassiveCluster(datagen.Config{N: 4000, Seed: 46, MaxSide: 10}),
		},
		{
			name: "role-switch-mix",
			a:    mixed(47, 2200, 120),
			b:    mixed(49, 120, 2200),
			cfg:  JoinConfig{TSU: 2, TSO: 4, FixedThresholds: true},
		},
		{
			name: "guideB",
			a:    datagen.Uniform(datagen.Config{N: 1500, Seed: 51, MaxSide: 12}),
			b:    datagen.MassiveCluster(datagen.Config{N: 1500, Seed: 52, MaxSide: 12}),
			cfg:  JoinConfig{GuideB: true},
		},
		{
			name: "no-transforms",
			a:    datagen.MassiveCluster(datagen.Config{N: 2500, Seed: 53, MaxSide: 8}),
			b:    datagen.Uniform(datagen.Config{N: 600, Seed: 54, MaxSide: 8}),
			cfg:  JoinConfig{DisableTransforms: true},
		},
		{
			name: "overfit-thresholds",
			a:    datagen.MassiveCluster(datagen.Config{N: 2000, Seed: 55, MaxSide: 6}),
			b:    datagen.Uniform(datagen.Config{N: 700, Seed: 56, MaxSide: 6}),
			cfg:  JoinConfig{TSU: 1.5, TSO: 1.5, FixedThresholds: true},
		},
	}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			ia := buildIndex(t, w.a, IndexConfig{UnitCapacity: 30, NodeCapacity: 6})
			ib := buildIndex(t, w.b, IndexConfig{UnitCapacity: 30, NodeCapacity: 6})
			want := naive.Join(w.a, w.b)
			seq, seqStats := parJoinPairs(t, ia, ib, w.cfg)
			if !naive.Equal(append([]geom.Pair(nil), seq...), want) {
				t.Fatal("sequential join disagrees with naive ground truth")
			}
			for _, workers := range []int{2, 3, 8} {
				cfg := w.cfg
				cfg.Parallelism = workers
				got, stats := parJoinPairs(t, ia, ib, cfg)
				if d := naive.Dedup(append([]geom.Pair(nil), got...)); len(d) != len(got) {
					t.Fatalf("workers=%d emitted %d duplicate pairs", workers, len(got)-len(d))
				}
				if !naive.Equal(append([]geom.Pair(nil), got...), append([]geom.Pair(nil), seq...)) {
					t.Fatalf("workers=%d pair set differs from sequential (got %d, want %d)",
						workers, len(got), len(seq))
				}
				if stats.Results != seqStats.Results {
					t.Fatalf("workers=%d Results = %d, sequential = %d", workers, stats.Results, seqStats.Results)
				}
				if stats.IO.Writes != 0 {
					t.Fatalf("workers=%d parallel join wrote %d pages", workers, stats.IO.Writes)
				}
			}
		})
	}
}

// TestParallelStatsPopulated checks that the merged parallel stats carry the
// same kinds of evidence the sequential stats do.
func TestParallelStatsPopulated(t *testing.T) {
	a := datagen.Uniform(datagen.Config{N: 3000, Seed: 61, MaxSide: 10})
	b := datagen.Uniform(datagen.Config{N: 3000, Seed: 62, MaxSide: 10})
	ia := buildIndex(t, a, IndexConfig{UnitCapacity: 40, NodeCapacity: 8})
	ib := buildIndex(t, b, IndexConfig{UnitCapacity: 40, NodeCapacity: 8})
	_, stats := parJoinPairs(t, ia, ib, JoinConfig{Parallelism: 4})
	if stats.IO.Reads == 0 {
		t.Fatal("parallel join counted no reads")
	}
	if stats.Comparisons == 0 || stats.MetaComparisons == 0 || stats.WalkSteps == 0 {
		t.Fatalf("parallel counters not populated: %+v", stats)
	}
	if stats.Wall <= 0 {
		t.Fatal("parallel wall time not measured")
	}
	if stats.TSUFinal <= 0 || stats.TSOFinal <= 0 {
		t.Fatalf("calibration finals not published: tsu=%v tso=%v", stats.TSUFinal, stats.TSOFinal)
	}
}

// TestParallelEdgeCases covers the fallback paths: more workers than pivot
// nodes, negative parallelism (GOMAXPROCS), and empty inputs.
func TestParallelEdgeCases(t *testing.T) {
	a := datagen.Uniform(datagen.Config{N: 300, Seed: 63, MaxSide: 12})
	b := datagen.Uniform(datagen.Config{N: 280, Seed: 64, MaxSide: 12})
	ia := buildIndex(t, a, IndexConfig{UnitCapacity: 40, NodeCapacity: 8})
	ib := buildIndex(t, b, IndexConfig{UnitCapacity: 40, NodeCapacity: 8})
	want := naive.Join(a, b)
	for _, workers := range []int{-1, 64} {
		got, _ := parJoinPairs(t, ia, ib, JoinConfig{Parallelism: workers})
		if !naive.Equal(got, want) {
			t.Fatalf("Parallelism=%d join incorrect", workers)
		}
	}
	empty := buildIndex(t, nil, IndexConfig{})
	if _, stats := parJoinPairs(t, empty, ib, JoinConfig{Parallelism: 4}); stats.Results != 0 {
		t.Fatal("empty parallel join found pairs")
	}
}

// TestParallelPropagatesStorageErrors: a worker's read failure must surface.
func TestParallelPropagatesStorageErrors(t *testing.T) {
	a := datagen.Uniform(datagen.Config{N: 800, Seed: 65, MaxSide: 10})
	b := datagen.Uniform(datagen.Config{N: 800, Seed: 66, MaxSide: 10})
	// Every worker's view shares the countdown, so the fifth read of the
	// fleet fails whichever worker issues it.
	st := newFailingStore()
	ia, _, err := BuildIndex(st, a, IndexConfig{World: datagen.DefaultWorld(), UnitCapacity: 40, NodeCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	ib, _, err := BuildIndex(st, b, IndexConfig{World: datagen.DefaultWorld(), UnitCapacity: 40, NodeCapacity: 8})
	if err != nil {
		t.Fatal(err)
	}
	st.countdown.Store(5)
	_, err = Join(ia, ib, JoinConfig{Parallelism: 4}, func(geom.Element, geom.Element) {})
	if err == nil {
		t.Fatal("parallel join swallowed a storage error")
	}
}

func TestChunkGuide(t *testing.T) {
	elems := datagen.MassiveCluster(datagen.Config{N: 6000, Seed: 67, MaxSide: 6})
	idx := buildIndex(t, elems, IndexConfig{UnitCapacity: 30, NodeCapacity: 6})
	for _, n := range []int{1, 2, 3, 7, 16, len(idx.nodes), len(idx.nodes) + 10} {
		chunks := chunkGuide(idx, n)
		if len(chunks) > len(idx.nodes) || len(chunks) < 1 {
			t.Fatalf("n=%d: %d chunks for %d nodes", n, len(chunks), len(idx.nodes))
		}
		// Spans are contiguous, non-empty, and partition [0, nodes).
		pos := 0
		total := 0
		for _, c := range chunks {
			if c[0] != pos || c[1] <= c[0] {
				t.Fatalf("n=%d: bad span %v at pos %d", n, c, pos)
			}
			for k := c[0]; k < c[1]; k++ {
				total += int(idx.nodes[idx.nodeOrder[k]].Count)
			}
			pos = c[1]
		}
		if pos != len(idx.nodes) || total != idx.size {
			t.Fatalf("n=%d: spans cover %d nodes / %d elements, want %d / %d",
				n, pos, total, len(idx.nodes), idx.size)
		}
	}
}

// BenchmarkJoinParallelScaling measures the parallel speedup of the uniform
// 100k x 100k join across worker counts. On multi-core hardware the 8-worker
// run should complete the join at least 2x faster than workers=1; on a
// single-core machine the worker counts degenerate to time-sliced execution
// and the ratio stays near 1.
//
//	go test ./internal/core -bench BenchmarkJoinParallelScaling -benchtime 3x
func BenchmarkJoinParallelScaling(b *testing.B) {
	const n = 100_000
	a := datagen.Uniform(datagen.Config{N: n, Seed: 71, MaxSide: 10})
	bb := datagen.Uniform(datagen.Config{N: n, Seed: 72, MaxSide: 10})
	ia := buildIndex(b, a, IndexConfig{})
	ib := buildIndex(b, bb, IndexConfig{})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Join(ia, ib, JoinConfig{Parallelism: workers},
					func(geom.Element, geom.Element) {}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestPooledSidesStartEveryRunCold: the per-side state of a run is taken from
// the index's pool and handed back, so a run may inherit a side that a
// parallel worker restricted to its chunk, a forced-transformation join
// scribbled all over, or a range query walked with. Every run in a mixed
// sequence over one index pair — and over the same indexes from several
// goroutines at once — must still find the naive pair set and count exactly
// what the same run counts over freshly built indexes: nothing checked, walks
// unpositioned, buffer pool cold, cache size its own.
func TestPooledSidesStartEveryRunCold(t *testing.T) {
	a := datagen.MassiveCluster(datagen.Config{N: 3000, Seed: 81, MaxSide: 8})
	b := datagen.Uniform(datagen.Config{N: 2500, Seed: 82, MaxSide: 8})
	icfg := IndexConfig{UnitCapacity: 30, NodeCapacity: 6}
	want := naive.Join(a, b)
	type counts struct {
		results, comparisons, meta, walk, switches, nodeSplits, unitSplits uint64
		io                                                                 storage.Stats
	}
	run := func(ia, ib *Index, cfg JoinConfig) (counts, []geom.Pair) {
		t.Helper()
		var mu sync.Mutex
		var pairs []geom.Pair
		s, err := Join(ia, ib, cfg, func(x, y geom.Element) {
			mu.Lock()
			pairs = append(pairs, geom.Pair{A: x.ID, B: y.ID})
			mu.Unlock()
		})
		if err != nil {
			t.Error(err) // run is also called off the test goroutine
		}
		return counts{s.Results, s.Comparisons, s.MetaComparisons, s.WalkSteps, s.RoleSwitches, s.NodeSplits, s.UnitSplits, s.IO}, pairs
	}
	cfgs := []JoinConfig{
		{Concurrent: true, FixedThresholds: true, Parallelism: 4},
		{Concurrent: true, FixedThresholds: true},
		{Concurrent: true, FixedThresholds: true, TSU: 1.5, TSO: 1.5},
		{Concurrent: true, FixedThresholds: true, GuideB: true, CachePages: 2},
		{Concurrent: true, DisableTransforms: true},
		{Concurrent: true, FixedThresholds: true},
	}
	fresh := make([]counts, len(cfgs))
	for i, cfg := range cfgs {
		var pairs []geom.Pair
		fresh[i], pairs = run(buildIndex(t, a, icfg), buildIndex(t, b, icfg), cfg)
		if !naive.Equal(pairs, naive.Join(a, b)) {
			t.Fatalf("config %d over fresh indexes disagrees with naive", i)
		}
	}
	if fresh[1] != fresh[5] || fresh[1].io.Reads == fresh[3].io.Reads {
		t.Fatalf("fixture does not tell runs apart: %+v / %+v / %+v", fresh[1], fresh[3], fresh[5])
	}

	ia, ib := buildIndex(t, a, icfg), buildIndex(t, b, icfg)
	query := geom.Box{Lo: geom.Point{200, 200, 200}, Hi: geom.Point{700, 700, 700}}
	for round := 0; round < 2; round++ {
		for i, cfg := range cfgs {
			got, pairs := run(ia, ib, cfg)
			if got != fresh[i] {
				t.Fatalf("round %d config %d on pooled sides counted\n %+v, over fresh indexes\n %+v", round, i, got, fresh[i])
			}
			if !naive.Equal(pairs, append([]geom.Pair(nil), want...)) {
				t.Fatalf("round %d config %d on pooled sides disagrees with naive", round, i)
			}
			if elems, _, err := ia.RangeQuery(query, nil); err != nil || len(elems) != len(naiveRange(a, query)) {
				t.Fatalf("range query between joins: %d elements, err %v", len(elems), err)
			}
		}
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 3; k++ {
				i := (w + k) % len(cfgs)
				if got, _ := run(ia, ib, cfgs[i]); got != fresh[i] {
					t.Errorf("goroutine %d: config %d counted %+v, over fresh indexes %+v", w, i, got, fresh[i])
				}
			}
		}(w)
	}
	wg.Wait()
}
