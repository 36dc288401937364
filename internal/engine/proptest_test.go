// Property-based equivalence harness: a seeded generator of adversarial
// datasets asserts that every registered engine — including the sharded
// meta-engines at fixed tile counts — returns the exact naive pair set.
//
// The file lives in the external test package so it can import the shard
// meta-engine (which imports engine); its registration side effect is what
// puts shard-transformers/shard-grid into the registry for the whole test
// binary, internal test files included.
//
// The seed is randomized per run (adversarial shapes are parameterized, not
// hand-picked) and printed on every run; reproduce a failure with
// PROPTEST_SEED=<seed>, and point PROPTEST_SEED_DIR at a directory to have
// the seed written to proptest-seed.txt for CI artifact upload.
package engine_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	_ "repro/internal/engine/shard"
	"repro/internal/geom"
	"repro/internal/naive"
)

// shardTileCounts are the fixed fan-outs the harness forces through the
// sharded engines: the degenerate K=1, an even cut, a prime that never
// aligns with the Hilbert grid, and a serving-scale fan-out.
var shardTileCounts = []int{1, 2, 7, 16}

// propSeed resolves the harness seed: PROPTEST_SEED pins it, otherwise it is
// time-randomized. The chosen seed is logged and, when PROPTEST_SEED_DIR is
// set, persisted for CI to upload on failure.
func propSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("PROPTEST_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad PROPTEST_SEED %q: %v", s, err)
		}
		seed = v
	}
	if dir := os.Getenv("PROPTEST_SEED_DIR"); dir != "" {
		// Append, one line per test run: several tests (and -count reruns)
		// share the file, and the failing run's seed must survive later
		// passing runs.
		f, err := os.OpenFile(filepath.Join(dir, "proptest-seed.txt"),
			os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Logf("could not persist seed: %v", err)
		} else {
			fmt.Fprintf(f, "%s: PROPTEST_SEED=%d\n", t.Name(), seed)
			f.Close()
		}
	}
	t.Logf("property-test seed %d (reproduce with PROPTEST_SEED=%d)", seed, seed)
	return seed
}

// propWorld is the generator's space; elements deliberately hug and cross
// its boundaries.
var propWorld = geom.Box{Lo: geom.Point{0, 0, 0}, Hi: geom.Point{1000, 1000, 1000}}

// genUniformBoxes draws n boxes with centers uniform in the world and sides
// up to maxSide (zero maxSide produces degenerate zero-area boxes).
func genUniformBoxes(r *rand.Rand, n int, maxSide float64, idBase uint64) []geom.Element {
	out := make([]geom.Element, n)
	for i := range out {
		c := geom.Point{r.Float64() * 1000, r.Float64() * 1000, r.Float64() * 1000}
		var half geom.Point
		for d := 0; d < geom.Dims; d++ {
			if maxSide > 0 {
				half[d] = r.Float64() * maxSide / 2
			}
		}
		out[i] = geom.Element{ID: idBase + uint64(i), Box: geom.BoxAround(c, half)}
	}
	return out
}

// genClustered concentrates n boxes in k tight clusters — the extreme-skew
// shape that defeats uniform partitioning.
func genClustered(r *rand.Rand, n, k int, spread, maxSide float64, idBase uint64) []geom.Element {
	centers := make([]geom.Point, k)
	for i := range centers {
		centers[i] = geom.Point{r.Float64() * 1000, r.Float64() * 1000, r.Float64() * 1000}
	}
	out := make([]geom.Element, n)
	for i := range out {
		c := centers[r.Intn(k)]
		p := geom.Point{
			c[0] + r.NormFloat64()*spread,
			c[1] + r.NormFloat64()*spread,
			c[2] + r.NormFloat64()*spread,
		}
		half := geom.Point{r.Float64() * maxSide / 2, r.Float64() * maxSide / 2, r.Float64() * maxSide / 2}
		out[i] = geom.Element{ID: idBase + uint64(i), Box: geom.BoxAround(p, half)}
	}
	return out
}

// genGiants draws boxes spanning more than half the world per dimension —
// every one of them straddles every tiling's borders.
func genGiants(r *rand.Rand, n int, idBase uint64) []geom.Element {
	out := make([]geom.Element, n)
	for i := range out {
		var lo, hi geom.Point
		for d := 0; d < geom.Dims; d++ {
			lo[d] = r.Float64() * 400
			hi[d] = lo[d] + 500 + r.Float64()*(1000-lo[d]-500)
		}
		out[i] = geom.Element{ID: idBase + uint64(i), Box: geom.NewBox(lo, hi)}
	}
	return out
}

// identicalBoxes returns n elements sharing one box.
func identicalBoxes(r *rand.Rand, n int, idBase uint64) []geom.Element {
	b := geom.BoxAround(
		geom.Point{r.Float64() * 1000, r.Float64() * 1000, r.Float64() * 1000},
		geom.Point{2, 2, 2})
	out := make([]geom.Element, n)
	for i := range out {
		out[i] = geom.Element{ID: idBase + uint64(i), Box: b}
	}
	return out
}

// repeatIDs folds the IDs of elems onto [0, mod): nothing at ingest requires an
// ID to be unique, and a join's answer is then a multiset of ID pairs.
func repeatIDs(elems []geom.Element, mod uint64) []geom.Element {
	for i := range elems {
		elems[i].ID %= mod
	}
	return elems
}

// adversarialCases builds the dataset-pair corpus for one seed. Sizes are
// kept small enough that the naive reference stays instant while every
// engine still partitions, replicates and dedups.
func adversarialCases(seed int64) []enginetest.Workload {
	r := rand.New(rand.NewSource(seed))
	return []enginetest.Workload{
		{Name: "empty-vs-uniform", A: nil, B: genUniformBoxes(r, 200, 4, 0)},
		{Name: "uniform-vs-empty", A: genUniformBoxes(r, 200, 4, 0), B: nil},
		{Name: "both-empty", A: nil, B: nil},
		{Name: "single-vs-single", A: genUniformBoxes(r, 1, 6, 0), B: genUniformBoxes(r, 1, 1000, 0)},
		{Name: "single-vs-many", A: genGiants(r, 1, 0), B: genUniformBoxes(r, 400, 3, 0)},
		{Name: "all-identical", A: identicalBoxes(r, 120, 0), B: identicalBoxes(r, 90, 0)},
		{Name: "zero-area", A: genUniformBoxes(r, 300, 0, 0), B: genUniformBoxes(r, 300, 30, 0)},
		{Name: "giants-vs-uniform", A: genGiants(r, 40, 0), B: genUniformBoxes(r, 500, 5, 0)},
		{Name: "giants-vs-giants", A: genGiants(r, 60, 0), B: genGiants(r, 60, 0)},
		{Name: "extreme-skew", A: genClustered(r, 800, 3, 4, 3, 0), B: genClustered(r, 800, 2, 3, 3, 0)},
		{Name: "skew-vs-uniform", A: genClustered(r, 700, 4, 5, 4, 0), B: genUniformBoxes(r, 700, 6, 0)},
		{Name: "mixed-bag", A: append(genGiants(r, 10, 0), genClustered(r, 500, 5, 6, 4, 100)...),
			B: append(genUniformBoxes(r, 400, 5, 0), identicalBoxes(r, 80, 5000)...)},
		{Name: "repeated-ids", A: repeatIDs(genUniformBoxes(r, 600, 120, 0), 50), B: repeatIDs(genUniformBoxes(r, 600, 120, 0), 7)},
	}
}

// TestPropertyEquivalence is the harness: every registered engine on every
// adversarial case must return the exact naive pair set; the sharded engines
// additionally at every fixed tile count and a non-trivial worker count.
func TestPropertyEquivalence(t *testing.T) {
	seed := propSeed(t)
	for _, w := range adversarialCases(seed) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			reference := naive.Join(w.A, w.B)
			for _, name := range engine.Names() {
				runs := []engine.Options{{}}
				if j, err := engine.Get(name); err == nil {
					if _, isShard := j.(interface{ Inner() string }); isShard {
						runs = runs[:0]
						for _, k := range shardTileCounts {
							runs = append(runs, engine.Options{ShardTiles: k, Parallelism: 3})
						}
					}
				}
				for _, opt := range runs {
					res, err := engine.Run(context.Background(), name,
						enginetest.Copy(w.A), enginetest.Copy(w.B), opt)
					if err != nil {
						t.Fatalf("%s (K=%d): %v", name, opt.ShardTiles, err)
					}
					if !naive.Equal(res.Pairs, enginetest.CopyPairs(reference)) {
						t.Errorf("%s (K=%d) on %s: %d pairs, naive has %d — set diverges (seed %d)",
							name, opt.ShardTiles, w.Name, len(res.Pairs), len(reference), seed)
					}
					if res.Stats.Refinements != uint64(len(reference)) {
						t.Errorf("%s (K=%d) on %s: Refinements=%d, want %d (seed %d)",
							name, opt.ShardTiles, w.Name, res.Stats.Refinements, len(reference), seed)
					}
					// The streamed multiset must be the same exact set on
					// every adversarial shape.
					var streamed []geom.Pair
					if _, err := engine.RunStream(context.Background(), name,
						enginetest.Copy(w.A), enginetest.Copy(w.B), opt,
						func(p geom.Pair) error { streamed = append(streamed, p); return nil }); err != nil {
						t.Fatalf("%s (K=%d) stream: %v", name, opt.ShardTiles, err)
					}
					if !naive.Equal(streamed, enginetest.CopyPairs(reference)) {
						t.Errorf("%s (K=%d) on %s: streamed %d pairs, naive has %d — set diverges (seed %d)",
							name, opt.ShardTiles, w.Name, len(streamed), len(reference), seed)
					}
				}
			}
		})
	}
}

// settledGoroutines polls until the process goroutine count drops back to at
// most want, failing the test if it never settles — an aborted stream that
// leaks a worker or watcher keeps the count elevated forever.
func settledGoroutines(t *testing.T, want int, label string) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= want {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("%s: %d goroutines still alive (baseline %d):\n%s",
				label, runtime.NumGoroutine(), want, buf[:n])
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
}

// TestPropertyStreamAbort: an emit that errors after N pairs must stop every
// engine — the sink goes sticky, so emit is never invoked again, the
// engine's cooperative stop ends the work within its worker budget, the
// sentinel error is returned, and no goroutine outlives the call.
func TestPropertyStreamAbort(t *testing.T) {
	seed := propSeed(t)
	r := rand.New(rand.NewSource(seed + 2))
	// A pair-rich draw so every engine has far more than N pairs to abort
	// out of.
	a := genClustered(r, 700, 3, 5, 6, 0)
	b := genClustered(r, 700, 2, 4, 6, 0)
	reference := naive.Join(enginetest.Copy(a), enginetest.Copy(b))
	const abortAfter = 10
	if len(reference) <= 4*abortAfter {
		t.Skip("degenerate draw: too few pairs to observe an abort")
	}
	sentinel := errors.New("proptest: abort after N pairs")
	baseline := runtime.NumGoroutine()
	for _, name := range engine.Names() {
		runs := []engine.Options{{}, {Parallelism: 4}}
		if isShard(name) {
			runs = []engine.Options{{ShardTiles: 7, Parallelism: 3}}
		}
		for _, opt := range runs {
			emitted := 0
			res, err := engine.RunStream(context.Background(), name,
				enginetest.Copy(a), enginetest.Copy(b), opt,
				func(geom.Pair) error {
					emitted++
					if emitted >= abortAfter {
						return sentinel
					}
					return nil
				})
			if !errors.Is(err, sentinel) {
				t.Fatalf("%s (par=%d): aborted stream returned %v, want sentinel (seed %d)",
					name, opt.Parallelism, err, seed)
			}
			if res != nil {
				t.Errorf("%s (par=%d): aborted stream returned a result (seed %d)", name, opt.Parallelism, seed)
			}
			if emitted != abortAfter {
				t.Errorf("%s (par=%d): emit called %d times after erroring at %d — sink not sticky (seed %d)",
					name, opt.Parallelism, emitted, abortAfter, seed)
			}
			settledGoroutines(t, baseline+2, name)
		}
	}
}

// TestPropertyStreamCancel: canceling the context mid-stream must abort the
// engine with context.Canceled and leak nothing, even when emit itself never
// fails — the cancellation watcher, not the emit path, stops the work.
func TestPropertyStreamCancel(t *testing.T) {
	seed := propSeed(t)
	r := rand.New(rand.NewSource(seed + 3))
	a := genClustered(r, 700, 3, 5, 6, 0)
	b := genClustered(r, 700, 2, 4, 6, 0)
	if len(naive.Join(enginetest.Copy(a), enginetest.Copy(b))) < 50 {
		t.Skip("degenerate draw: too few pairs to cancel mid-stream")
	}
	baseline := runtime.NumGoroutine()
	for _, name := range engine.Names() {
		opt := engine.Options{Parallelism: 3}
		if isShard(name) {
			opt.ShardTiles = 7
		}
		ctx, cancel := context.WithCancel(context.Background())
		emitted := 0
		_, err := engine.RunStream(ctx, name, enginetest.Copy(a), enginetest.Copy(b), opt,
			func(geom.Pair) error {
				emitted++
				if emitted == 5 {
					cancel() // the consumer goes away; its emit keeps succeeding
				}
				return nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled stream returned %v, want context.Canceled (seed %d)", name, err, seed)
		}
		settledGoroutines(t, baseline+2, name)
	}
}

func isShard(name string) bool {
	j, err := engine.Get(name)
	if err != nil {
		return false
	}
	_, ok := j.(interface{ Inner() string })
	return ok
}

// TestPropertyShardWorkerInvariance: on one adversarial case, the sharded
// result must not vary with the worker count — the pair set is a function of
// the tiling, never of the schedule.
func TestPropertyShardWorkerInvariance(t *testing.T) {
	seed := propSeed(t)
	r := rand.New(rand.NewSource(seed + 1))
	a := genClustered(r, 900, 3, 5, 4, 0)
	b := append(genGiants(r, 15, 0), genUniformBoxes(r, 600, 5, 100)...)
	reference := naive.Join(a, b)
	if len(reference) == 0 {
		t.Skip("degenerate draw: no pairs")
	}
	for _, name := range []string{engine.ShardTransformers, engine.ShardGrid} {
		for _, workers := range []int{1, 2, 5, 9} {
			res, err := engine.Run(context.Background(), name,
				enginetest.Copy(a), enginetest.Copy(b),
				engine.Options{ShardTiles: 7, Parallelism: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if !naive.Equal(res.Pairs, enginetest.CopyPairs(reference)) {
				t.Errorf("%s workers=%d: pair set diverges (seed %d)", name, workers, seed)
			}
		}
	}
}
