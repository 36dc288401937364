package inmem

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine/enginetest"
	"repro/internal/geom"
)

// bruteForce returns the reference pair multiset as occurrence counts.
func bruteForce(a, b []geom.Element) map[geom.Pair]int {
	out := make(map[geom.Pair]int)
	for _, ea := range a {
		for _, eb := range b {
			if ea.Box.Intersects(eb.Box) {
				out[geom.Pair{A: ea.ID, B: eb.ID}]++
			}
		}
	}
	return out
}

// collect joins p and returns the emitted multiset; the emit callback locks
// so it is valid at any worker count.
func collect(p *Partitioned, cfg JoinConfig) (map[geom.Pair]int, Stats) {
	var mu sync.Mutex
	got := make(map[geom.Pair]int)
	st := p.Join(cfg, func(aID, bID uint64) {
		mu.Lock()
		got[geom.Pair{A: aID, B: bID}]++
		mu.Unlock()
	})
	return got, st
}

func diffMultisets(t *testing.T, label string, want, got map[geom.Pair]int) {
	t.Helper()
	for pr, n := range want {
		if got[pr] != n {
			t.Fatalf("%s: pair %v emitted %d times, want %d", label, pr, got[pr], n)
		}
	}
	for pr, n := range got {
		if want[pr] == 0 {
			t.Fatalf("%s: spurious pair %v (x%d)", label, pr, n)
		}
	}
}

// TestInMemKernelMatchesNaive: on the three canonical distributions the
// kernel reports the exact naive pair multiset — each pair exactly once, no
// dedup pass — at single- and multi-worker execution and at a forced
// multi-stripe cut.
func TestInMemKernelMatchesNaive(t *testing.T) {
	for _, w := range enginetest.Workloads(700, 9100) {
		want := bruteForce(w.A, w.B)
		for _, cfg := range []Config{{}, {Stripes: 7}, {CacheBytes: 4 << 10}} {
			p := Partition(enginetest.Copy(w.A), enginetest.Copy(w.B), cfg)
			for _, workers := range []int{1, 8} {
				label := fmt.Sprintf("%s/stripes=%d/workers=%d", w.Name, p.stripes, workers)
				got, st := collect(p, JoinConfig{Parallelism: workers})
				diffMultisets(t, label, want, got)
				if int(st.Results) != len(got) {
					t.Fatalf("%s: stats.Results=%d, emitted %d", label, st.Results, len(got))
				}
				if st.Comparisons < st.Results {
					t.Fatalf("%s: comparisons %d < results %d", label, st.Comparisons, st.Results)
				}
			}
		}
	}
}

// TestInMemKernelAdversarial: degenerate geometry — zero-area points,
// identical boxes, world-spanning giants among small boxes, boundary-touching
// pairs — must neither lose nor duplicate pairs.
func TestInMemKernelAdversarial(t *testing.T) {
	pt := func(id uint64, x, y, z float64) geom.Element {
		return geom.Element{ID: id, Box: geom.NewBox(geom.Point{x, y, z}, geom.Point{x, y, z})}
	}
	box := func(id uint64, lo, hi geom.Point) geom.Element {
		return geom.Element{ID: id, Box: geom.Box{Lo: lo, Hi: hi}}
	}
	cases := []struct {
		name string
		a, b []geom.Element
	}{
		{name: "empty-a", a: nil, b: datagen.Uniform(datagen.Config{N: 50, Seed: 1})},
		{name: "empty-b", a: datagen.Uniform(datagen.Config{N: 50, Seed: 2}), b: nil},
		{name: "single", a: []geom.Element{pt(1, 5, 5, 5)}, b: []geom.Element{pt(2, 5, 5, 5)}},
		{
			name: "zero-area-points",
			a:    []geom.Element{pt(1, 0, 0, 0), pt(2, 1, 1, 1), pt(3, 1, 1, 1)},
			b:    []geom.Element{pt(10, 1, 1, 1), pt(11, 2, 2, 2)},
		},
		{
			name: "identical-boxes",
			a: []geom.Element{
				box(1, geom.Point{0, 0, 0}, geom.Point{1, 1, 1}),
				box(2, geom.Point{0, 0, 0}, geom.Point{1, 1, 1}),
				box(3, geom.Point{0, 0, 0}, geom.Point{1, 1, 1}),
			},
			b: []geom.Element{
				box(10, geom.Point{0, 0, 0}, geom.Point{1, 1, 1}),
				box(11, geom.Point{0, 0, 0}, geom.Point{1, 1, 1}),
			},
		},
		{
			name: "giants-span-stripes",
			a: append(enginetest.Copy(datagen.Uniform(datagen.Config{N: 200, Seed: 3})),
				box(9001, geom.Point{-1e6, -1e6, -1e6}, geom.Point{1e6, 1e6, 1e6}),
				box(9002, geom.Point{-1e6, 0, 0}, geom.Point{1e6, 1, 1})),
			b: datagen.Uniform(datagen.Config{N: 200, Seed: 4}),
		},
		{
			name: "touching-at-boundary",
			a:    []geom.Element{box(1, geom.Point{0, 0, 0}, geom.Point{5, 5, 5})},
			b:    []geom.Element{box(10, geom.Point{5, 0, 0}, geom.Point{9, 5, 5}), box(11, geom.Point{0, 5, 0}, geom.Point{5, 9, 5})},
		},
	}
	for _, tc := range cases {
		want := bruteForce(tc.a, tc.b)
		for _, stripes := range []int{0, 1, 5} {
			p := Partition(enginetest.Copy(tc.a), enginetest.Copy(tc.b), Config{Stripes: stripes})
			for _, workers := range []int{1, 4} {
				got, _ := collect(p, JoinConfig{Parallelism: workers})
				diffMultisets(t, fmt.Sprintf("%s/stripes=%d/workers=%d", tc.name, stripes, workers), want, got)
			}
		}
	}
}

// TestInMemKernelParallelInvariance: the pair multiset and the comparison
// count are identical at every worker count — stripes are disjoint work
// units, so scheduling cannot change what is tested or emitted.
func TestInMemKernelParallelInvariance(t *testing.T) {
	a, b := enginetest.UniformPair(3000, 9201, 9202)
	enginetest.Inflate(a, 6)
	enginetest.Inflate(b, 6)
	p := Partition(a, b, Config{Stripes: 16})
	ref, refStats := collect(p, JoinConfig{Parallelism: 1})
	for _, workers := range []int{2, 7, 16, -1} {
		got, st := collect(p, JoinConfig{Parallelism: workers})
		diffMultisets(t, fmt.Sprintf("workers=%d", workers), ref, got)
		if st.Comparisons != refStats.Comparisons || st.Results != refStats.Results {
			t.Fatalf("workers=%d: counters (%d,%d) differ from single-threaded (%d,%d)",
				workers, st.Comparisons, st.Results, refStats.Comparisons, refStats.Results)
		}
	}
}

// TestInMemKernelStop: a raised stop flag aborts the join within the worker
// budget; a flag raised mid-join cuts the result short.
func TestInMemKernelStop(t *testing.T) {
	a, b := enginetest.UniformPair(2000, 9301, 9302)
	enginetest.Inflate(a, 8)
	enginetest.Inflate(b, 8)
	p := Partition(a, b, Config{Stripes: 8})
	full, _ := collect(p, JoinConfig{Parallelism: 1})

	var pre atomic.Bool
	pre.Store(true)
	st := p.Join(JoinConfig{Parallelism: 1, Stop: &pre}, func(_, _ uint64) {
		t.Fatal("pre-raised stop flag must suppress all emits")
	})
	if st.Results != 0 {
		t.Fatalf("pre-stopped join reported %d results", st.Results)
	}

	var mid atomic.Bool
	var n int
	st = p.Join(JoinConfig{Parallelism: 1, Stop: &mid}, func(_, _ uint64) {
		n++
		if n == 10 {
			mid.Store(true)
		}
	})
	if n >= len(full) {
		t.Fatalf("mid-join stop did not cut the join short: %d of %d pairs", n, len(full))
	}
	if int(st.Results) != n {
		t.Fatalf("stats.Results=%d after stop, emitted %d", st.Results, n)
	}
}

// TestSweepOrderRadix: the radix path (inputs past geom.RadixMinLen) must produce
// the same ascending order as the comparison sort across sign changes,
// zeroes, and duplicate keys — the geom.FloatSortable transform is only correct if
// negative keys flip entirely.
func TestSweepOrderRadix(t *testing.T) {
	n := geom.RadixMinLen * 3
	elems := make([]geom.Element, n)
	for i := range elems {
		// Deterministic mix of negative, zero and positive keys with
		// duplicates: values in [-1e6, 1e6] with a coarse grid of ties.
		v := float64((i*2654435761)%2000001-1000000) / 3
		if i%97 == 0 {
			v = 0
		}
		if i%101 == 0 {
			v = -v
		}
		elems[i] = geom.Element{ID: uint64(i), Box: geom.NewBox(
			geom.Point{v, 0, 0}, geom.Point{v + 1, 1, 1})}
	}
	perm := sweepOrder(Input{Base: elems}, 0, new(geom.KeySorter))
	if len(perm) != n {
		t.Fatalf("perm length %d, want %d", len(perm), n)
	}
	seen := make([]bool, n)
	for pi := 1; pi < n; pi++ {
		prev := elems[perm[pi-1].I].Box.Lo[0]
		cur := elems[perm[pi].I].Box.Lo[0]
		if prev > cur {
			t.Fatalf("order violated at %d: %g > %g", pi, prev, cur)
		}
	}
	for _, sk := range perm {
		if seen[sk.I] {
			t.Fatalf("index %d appears twice", sk.I)
		}
		seen[sk.I] = true
	}
}

// TestInMemKernelStats: the partition record is faithful — effective stripe
// count, dimension choice, and replication accounting.
func TestInMemKernelStats(t *testing.T) {
	a, b := enginetest.UniformPair(4000, 9401, 9402)
	enginetest.Inflate(a, 4)
	enginetest.Inflate(b, 4)
	p := Partition(a, b, Config{Stripes: 10})
	_, st := collect(p, JoinConfig{Parallelism: 1})
	if st.Stripes < 2 || st.Stripes > 10 {
		t.Fatalf("effective stripes = %d, want 2..10", st.Stripes)
	}
	if st.SplitDim == st.SweepDim || st.SplitDim < 0 || st.SweepDim < 0 ||
		st.SplitDim >= geom.Dims || st.SweepDim >= geom.Dims {
		t.Fatalf("dimension choice split=%d sweep=%d", st.SplitDim, st.SweepDim)
	}
	if st.ReplicatedA < 0 || st.ReplicatedB < 0 {
		t.Fatalf("negative replication: %d/%d", st.ReplicatedA, st.ReplicatedB)
	}
	if len(p.a.ref) != len(a)+st.ReplicatedA || len(p.b.ref) != len(b)+st.ReplicatedB {
		t.Fatalf("assignments %d/%d vs inputs %d+%d/%d+%d",
			len(p.a.ref), len(p.b.ref), len(a), st.ReplicatedA, len(b), st.ReplicatedB)
	}
	// Identical low corners on the split dimension dedupe every cut: the
	// kernel degrades to one stripe instead of emitting duplicates.
	same := make([]geom.Element, 64)
	for i := range same {
		same[i] = geom.Element{ID: uint64(i), Box: geom.NewBox(geom.Point{1, 2, 3}, geom.Point{2, 3, 4})}
	}
	p = Partition(same, enginetest.Copy(same), Config{Stripes: 8})
	if p.stripes != 1 {
		t.Fatalf("degenerate split values produced %d stripes, want 1", p.stripes)
	}
}

// TestInMemJoinAllocFree pins the hot-path contract: a single-threaded join
// over a prebuilt partition performs zero allocations per run — nothing per
// pair, nothing per stripe.
func TestInMemJoinAllocFree(t *testing.T) {
	a, b := enginetest.UniformPair(2000, 9501, 9502)
	enginetest.Inflate(a, 6)
	enginetest.Inflate(b, 6)
	p := Partition(a, b, Config{Stripes: 6})
	var results uint64
	emit := func(_, _ uint64) { results++ }
	if avg := testing.AllocsPerRun(10, func() {
		st := p.Join(JoinConfig{Parallelism: 1}, emit)
		results += st.Results
	}); avg != 0 {
		t.Fatalf("single-threaded Join allocates %.1f times per run, want 0", avg)
	}
	if results == 0 {
		t.Fatal("alloc probe joined nothing")
	}
}

// BenchmarkInMemJoin measures the kernel: the join phase alone over a
// prebuilt partition (the planner-relevant hot path), the end-to-end
// partition+join, and the join the benchmark's selective workload repeats —
// uniform 100K x dense_cluster 100K, a dozen pairs — with what it tests,
// finds and holds.
func BenchmarkInMemJoin(bm *testing.B) {
	a, b := enginetest.UniformPair(20000, 9601, 9602)
	enginetest.Inflate(a, 4)
	enginetest.Inflate(b, 4)
	var sink uint64
	emit := func(_, _ uint64) { sink++ }
	bm.Run("join", func(bm *testing.B) {
		p := Partition(enginetest.Copy(a), enginetest.Copy(b), Config{})
		bm.ReportAllocs()
		bm.ResetTimer()
		for i := 0; i < bm.N; i++ {
			p.Join(JoinConfig{Parallelism: 1}, emit)
		}
	})
	bm.Run("partition+join", func(bm *testing.B) {
		bm.ReportAllocs()
		for i := 0; i < bm.N; i++ {
			bm.StopTimer()
			ca, cb := enginetest.Copy(a), enginetest.Copy(b)
			bm.StartTimer()
			p := Partition(ca, cb, Config{})
			p.Join(JoinConfig{Parallelism: 1}, emit)
		}
	})
	bm.Run("selective-100K", func(bm *testing.B) {
		u := datagen.Uniform(datagen.Config{N: 100_000, Seed: 1})
		d := datagen.DenseCluster(datagen.Config{N: 100_000, Seed: 2})
		p := Partition(u, d, Config{})
		var st Stats
		bm.ReportAllocs()
		bm.ResetTimer()
		for i := 0; i < bm.N; i++ {
			st = p.Join(JoinConfig{Parallelism: 1}, emit)
		}
		bm.ReportMetric(float64(st.Comparisons), "cmp/op")
		bm.ReportMetric(float64(st.Results), "pairs/op")
		bm.ReportMetric(float64(p.Bytes())/float64(len(u)+len(d)+st.ReplicatedA+st.ReplicatedB), "B/assignment")
	})
}

// TestInMemPartitionLeavesInputsUntouched: Partition reads its inputs and
// never writes them — the serving catalog builds resident partitions from the
// base slices it also hands to concurrent readers. Large enough for the radix
// sort path, multi-stripe so crossing replicas are made.
func TestInMemPartitionLeavesInputsUntouched(t *testing.T) {
	a, b := enginetest.UniformPair(geom.RadixMinLen*2, 9501, 9502)
	enginetest.Inflate(a, 6)
	wantA, wantB := enginetest.Copy(a), enginetest.Copy(b)
	Partition(a, b, Config{Stripes: 16})
	if !slices.Equal(a, wantA) || !slices.Equal(b, wantB) {
		t.Fatal("Partition modified an input slice")
	}
}

// TestInMemPartitionedSharedAcrossJoins: one Partitioned serves concurrent
// Join calls — different worker counts, one of them stopped before it starts
// — and every unstopped call reports the single-threaded pair multiset. The
// race detector is the other half of the assertion.
func TestInMemPartitionedSharedAcrossJoins(t *testing.T) {
	a, b := enginetest.UniformPair(3000, 9601, 9602)
	enginetest.Inflate(a, 6)
	enginetest.Inflate(b, 6)
	p := Partition(a, b, Config{Stripes: 16})
	ref, _ := collect(p, JoinConfig{Parallelism: 1})

	workers := []int{1, 2, 5, 16, -1}
	got := make([]map[geom.Pair]int, len(workers))
	var stopped Stats
	var wg sync.WaitGroup
	for i, w := range workers {
		wg.Add(1)
		go func(i, w int) {
			defer wg.Done()
			got[i], _ = collect(p, JoinConfig{Parallelism: w})
		}(i, w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		var stop atomic.Bool
		stop.Store(true)
		_, stopped = collect(p, JoinConfig{Parallelism: 4, Stop: &stop})
	}()
	wg.Wait()
	for i, w := range workers {
		diffMultisets(t, fmt.Sprintf("concurrent workers=%d", w), ref, got[i])
	}
	if stopped.Results != 0 {
		t.Fatalf("stopped join reported %d results beside the running ones", stopped.Results)
	}
}
