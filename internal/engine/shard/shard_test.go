package shard_test

import (
	"context"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/engine/shard"
	"repro/internal/geom"
	"repro/internal/naive"
)

// world is the synthetic evaluation space; the order-5 tiling grid cuts it
// into 31.25-unit cells, so multiples of tileCell sit exactly on potential
// tile boundary planes.
var world = datagen.DefaultWorld()

const tileCell = 1000.0 / 32

// run executes one sharded join and fails the test on error.
func run(t *testing.T, name string, a, b []geom.Element, opt engine.Options) *engine.Result {
	t.Helper()
	res, err := engine.Run(context.Background(), name, enginetest.Copy(a), enginetest.Copy(b), opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestBoundaryElements places boxes whose faces lie exactly on tiling-grid
// planes — the worst case for replication bookkeeping — and asserts the
// exact naive pair set at several tile counts.
func TestBoundaryElements(t *testing.T) {
	var a, b []geom.Element
	id := uint64(0)
	// A: a lattice of boxes spanning exactly one grid cell each, faces on
	// the planes.
	for i := 0; i < 10; i++ {
		for j := 0; j < 10; j++ {
			lo := geom.Point{float64(i*3) * tileCell, float64(j*3) * tileCell, 5 * tileCell}
			hi := geom.Point{lo[0] + tileCell, lo[1] + tileCell, 6 * tileCell}
			a = append(a, geom.Element{ID: id, Box: geom.Box{Lo: lo, Hi: hi}})
			id++
		}
	}
	// B: slabs covering whole grid layers, plus one world-spanning giant.
	for i := 0; i < 8; i++ {
		lo := geom.Point{float64(i*4) * tileCell, 0, 0}
		b = append(b, geom.Element{ID: uint64(i), Box: geom.Box{Lo: lo, Hi: geom.Point{lo[0] + 4*tileCell, 1000, 1000}}})
	}
	b = append(b, geom.Element{ID: 99, Box: world})
	ref := naive.Join(a, b)
	if len(ref) == 0 {
		t.Fatal("degenerate boundary workload")
	}
	for _, name := range []string{engine.ShardTransformers, engine.ShardGrid} {
		for _, k := range []int{1, 2, 3, 5, 8, 16} {
			res := run(t, name, a, b, engine.Options{ShardTiles: k, Parallelism: 2, World: world})
			if !naive.Equal(res.Pairs, enginetest.CopyPairs(ref)) {
				t.Errorf("%s K=%d: %d pairs, want %d", name, k, len(res.Pairs), len(ref))
			}
		}
	}
}

// TestTouchingPairs: MBBs that share a face (touch with zero overlap) are
// intersecting pairs by this repository's predicate, including when the
// shared face lies exactly on a tile boundary — the pair must be reported
// exactly once at any K.
func TestTouchingPairs(t *testing.T) {
	// The shared face sits on the plane x = 16·cell = 500, a boundary any
	// even cut of the space is likely to use.
	left := geom.Element{ID: 1, Box: geom.Box{
		Lo: geom.Point{500 - 2*tileCell, 400, 400}, Hi: geom.Point{500, 450, 450}}}
	right := geom.Element{ID: 2, Box: geom.Box{
		Lo: geom.Point{500, 400, 400}, Hi: geom.Point{500 + 2*tileCell, 450, 450}}}
	// Background elements force a non-trivial cut.
	bgA := enginetest.Inflate(datagen.Uniform(datagen.Config{N: 400, Seed: 81, IDBase: 1000}), 2)
	bgB := enginetest.Inflate(datagen.Uniform(datagen.Config{N: 400, Seed: 82, IDBase: 1000}), 2)
	a := append(enginetest.Copy(bgA), left)
	b := append(enginetest.Copy(bgB), right)
	ref := naive.Join(a, b)
	found := false
	for _, p := range ref {
		if p.A == 1 && p.B == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("touching pair missing from the naive reference")
	}
	for _, name := range []string{engine.ShardTransformers, engine.ShardGrid} {
		for _, k := range []int{1, 2, 7, 16} {
			res := run(t, name, a, b, engine.Options{ShardTiles: k, Parallelism: 2, World: world})
			if !naive.Equal(res.Pairs, enginetest.CopyPairs(ref)) {
				t.Errorf("%s K=%d: touching-face pair set diverges", name, k)
			}
		}
	}
}

// TestTouchingPairsDistance: the §VIII reduction applied by the shard engine
// itself (expansion happens before partitioning) must report a pair whose
// gap is exactly the query distance — the expanded boxes touch — exactly
// once, at any K.
func TestTouchingPairsDistance(t *testing.T) {
	const d = 2 * tileCell
	// Gap of exactly d along x, centered on the x=500 boundary plane.
	left := geom.Element{ID: 1, Box: geom.Box{
		Lo: geom.Point{480 - d, 300, 300}, Hi: geom.Point{500 - d, 320, 320}}}
	right := geom.Element{ID: 2, Box: geom.Box{
		Lo: geom.Point{500, 300, 300}, Hi: geom.Point{520, 320, 320}}}
	bg := enginetest.Inflate(datagen.Uniform(datagen.Config{N: 300, Seed: 83, IDBase: 1000}), 1)
	a := append(enginetest.Copy(bg), left)
	b := append(enginetest.Copy(bg), right)
	// Reference: naive on explicitly expanded copies.
	ea := make([]geom.Element, len(a))
	for i, e := range a {
		ea[i] = geom.Element{ID: e.ID, Box: e.Box.Expand(d / 2)}
	}
	eb := make([]geom.Element, len(b))
	for i, e := range b {
		eb[i] = geom.Element{ID: e.ID, Box: e.Box.Expand(d / 2)}
	}
	ref := naive.Join(ea, eb)
	found := false
	for _, p := range ref {
		if p.A == 1 && p.B == 2 {
			found = true
		}
	}
	if !found {
		t.Fatal("exact-gap pair missing from the expanded reference")
	}
	for _, name := range []string{engine.ShardTransformers, engine.ShardGrid} {
		for _, k := range []int{1, 2, 7, 16} {
			res := run(t, name, a, b, engine.Options{ShardTiles: k, Distance: d, Parallelism: 2, World: world})
			if !naive.Equal(res.Pairs, enginetest.CopyPairs(ref)) {
				t.Errorf("%s K=%d: distance pair set diverges (%d vs %d)", name, k, len(res.Pairs), len(ref))
			}
		}
	}
}

// TestPairCountInvariance: the reported pair count is a function of the
// data, never of K or the worker count, and the shard stats are internally
// consistent (replication, dedup and per-tile records add up).
func TestPairCountInvariance(t *testing.T) {
	a, b := enginetest.ClusteredPair(4000, 84, 85)
	a = enginetest.Inflate(a, 2)
	b = enginetest.Inflate(b, 2)
	want := len(naive.Join(a, b))
	if want == 0 {
		t.Fatal("degenerate workload")
	}
	for _, k := range []int{1, 2, 4, 7, 12, 16} {
		for _, workers := range []int{1, 3, 8} {
			res := run(t, engine.ShardTransformers, a, b,
				engine.Options{ShardTiles: k, Parallelism: workers})
			if int(res.Stats.Refinements) != want || len(res.Pairs) != want {
				t.Errorf("K=%d workers=%d: %d pairs / %d refinements, want %d",
					k, workers, len(res.Pairs), res.Stats.Refinements, want)
			}
			st := res.Stats.Shard
			if st == nil {
				t.Fatalf("K=%d: missing shard stats", k)
			}
			if st.Tiles != k || len(st.PerTile) != k {
				t.Errorf("K=%d: stats report %d tiles, %d records", k, st.Tiles, len(st.PerTile))
			}
			if st.Inner != engine.Transformers {
				t.Errorf("K=%d: inner = %q", k, st.Inner)
			}
			var elemsA, elemsB, pairs, dropped int
			for _, ts := range st.PerTile {
				elemsA += ts.ElementsA
				elemsB += ts.ElementsB
				pairs += int(ts.Pairs)
				dropped += int(ts.Dropped)
			}
			if k > 1 {
				if elemsA != len(a)+st.ReplicatedA {
					t.Errorf("K=%d: per-tile A elements %d != %d + replicated %d", k, elemsA, len(a), st.ReplicatedA)
				}
				if elemsB != len(b)+st.ReplicatedB {
					t.Errorf("K=%d: per-tile B elements %d != %d + replicated %d", k, elemsB, len(b), st.ReplicatedB)
				}
				if dropped != int(st.DedupDropped) {
					t.Errorf("K=%d: per-tile drops %d != total %d", k, dropped, st.DedupDropped)
				}
			}
			if pairs != want {
				t.Errorf("K=%d: per-tile pairs sum to %d, want %d", k, pairs, want)
			}
			if st.UtilizationPct < 0 || st.UtilizationPct > 100 {
				t.Errorf("K=%d: utilization %.1f%% out of range", k, st.UtilizationPct)
			}
		}
	}
}

// TestDensityBalancedCut: on heavily clustered data the equal-weight Hilbert
// cut must spread the mass across tiles instead of producing one hot shard —
// the hottest tile stays within a small factor of the mean.
func TestDensityBalancedCut(t *testing.T) {
	a, b := enginetest.SkewedPair(12000, 86, 87)
	const k = 8
	res := run(t, engine.ShardGrid, a, b, engine.Options{ShardTiles: k, Parallelism: 2})
	st := res.Stats.Shard
	if st == nil {
		t.Fatal("missing shard stats")
	}
	total, hottest := 0, 0
	for _, ts := range st.PerTile {
		n := ts.ElementsA + ts.ElementsB
		total += n
		if n > hottest {
			hottest = n
		}
	}
	mean := total / k
	if hottest > 3*mean {
		t.Errorf("hot shard: hottest tile holds %d elements, mean is %d (replication %d+%d)",
			hottest, mean, st.ReplicatedA, st.ReplicatedB)
	}
	if st.TilesRun < k/2 {
		t.Errorf("only %d of %d tiles ran on clustered data", st.TilesRun, k)
	}
}

// TestAutoTileCount: without ShardTiles the engine picks K from dataset
// statistics — 1 on small inputs (degenerating to the inner engine), more
// than 1 at scale.
func TestAutoTileCount(t *testing.T) {
	smallA, smallB := enginetest.UniformPair(800, 88, 89)
	res := run(t, engine.ShardGrid, enginetest.Inflate(smallA, 4), enginetest.Inflate(smallB, 4), engine.Options{})
	if res.Stats.Shard == nil || res.Stats.Shard.Tiles != 1 {
		t.Errorf("small input: tiles = %+v, want 1", res.Stats.Shard)
	}
	bigA, bigB := enginetest.UniformPair(30000, 90, 91)
	res = run(t, engine.ShardGrid, bigA, bigB, engine.Options{DiscardPairs: true})
	if res.Stats.Shard == nil || res.Stats.Shard.Tiles < 2 {
		t.Errorf("60k combined elements: tiles = %+v, want >= 2", res.Stats.Shard)
	}
}

// TestEmptyInputShardRecord: an empty input keeps the sharded response shape
// — the degenerate fan-out record of the engine's empty branch — whether the
// engine is run through the registry or called directly.
func TestEmptyInputShardRecord(t *testing.T) {
	a, _ := enginetest.UniformPair(50, 98, 99)
	for _, via := range []string{"registry", "direct"} {
		var res *engine.Result
		var err error
		if via == "registry" {
			res, err = engine.Run(context.Background(), engine.ShardTransformers, nil, a, engine.Options{})
		} else {
			j, _ := engine.Get(engine.ShardTransformers)
			res, err = j.JoinStream(context.Background(), nil, a, engine.Options{}, func(geom.Pair) error { return nil })
		}
		if err != nil {
			t.Fatalf("%s: %v", via, err)
		}
		sh := res.Stats.Shard
		if sh == nil || sh.Inner != engine.Transformers || sh.Tiles != 1 {
			t.Errorf("%s: empty-input shard record = %+v", via, sh)
		}
		if len(res.Pairs) != 0 || res.Stats.Refinements != 0 {
			t.Errorf("%s: empty join must report nothing", via)
		}
	}
}

// TestUnknownInner: a sharded engine around an unregistered inner must fail
// loudly, not fall back.
func TestUnknownInner(t *testing.T) {
	e := shard.New("nope")
	if e.Name() != "shard-nope" || e.Inner() != "nope" {
		t.Fatalf("naming: %q / %q", e.Name(), e.Inner())
	}
	a, _ := enginetest.UniformPair(10, 92, 93)
	if _, err := engine.Collect(context.Background(), e, a, a, engine.Options{}); err == nil {
		t.Fatal("unknown inner engine must error")
	}
}

// TestCanceledContext: cancellation aborts both the K=1 and the fan-out
// paths.
func TestCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, b := enginetest.UniformPair(500, 94, 95)
	for _, k := range []int{1, 4} {
		if _, err := engine.Get(engine.ShardTransformers); err != nil {
			t.Fatal(err)
		}
		j, _ := engine.Get(engine.ShardTransformers)
		if _, err := engine.Collect(ctx, j, enginetest.Copy(a), enginetest.Copy(b), engine.Options{ShardTiles: k}); err == nil {
			t.Errorf("K=%d: canceled context must abort", k)
		}
	}
}

// TestNegativeDistance mirrors the registry-level validation on the direct
// Join path.
func TestNegativeDistance(t *testing.T) {
	j, err := engine.Get(engine.ShardTransformers)
	if err != nil {
		t.Fatal(err)
	}
	a, b := enginetest.UniformPair(10, 96, 97)
	if _, err := engine.Collect(context.Background(), j, a, b, engine.Options{Distance: -1}); err == nil {
		t.Fatal("negative distance must fail")
	}
}
