// Streaming conformance suite: for every registered engine — the six
// natives and both sharded meta-engines — the pair multiset produced through
// the emit-based JoinStream path must be exactly the collected Join pair
// set, on the canonical uniform/clustered/skewed workloads, under both the
// intersects and the distance predicate, at parallelism 1 and 8 (and, for
// the sharded engines, at every fixed tile count the property harness
// pins; for transformers under the distance predicate, also through grown
// views of prebuilt indexes, the catalog's form of the join). The collected
// Join of every built-in is a thin wrapper over the stream, but this suite is
// what holds the two paths together if an engine ever grows a divergent fast
// path.
//
// The file lives in the external test package so the shard meta-engines'
// registration side effect is in force (see proptest_test.go).
package engine_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/geom"
	"repro/internal/naive"
)

// streamPairs runs the engine's streaming path and collects what it emits.
func streamPairs(t *testing.T, name string, a, b []geom.Element, opt engine.Options) ([]geom.Pair, *engine.Result) {
	t.Helper()
	var pairs []geom.Pair
	res, err := engine.RunStream(context.Background(), name, a, b, opt,
		func(p geom.Pair) error { pairs = append(pairs, p); return nil })
	if err != nil {
		t.Fatalf("%s: RunStream: %v", name, err)
	}
	return pairs, res
}

// conformanceRuns enumerates the option sets one engine is checked under:
// both predicates at both parallelism levels, with the sharded engines
// additionally swept over the harness's fixed tile counts.
func conformanceRuns(name string, distance float64) []engine.Options {
	var runs []engine.Options
	for _, par := range []int{1, 8} {
		base := engine.Options{Distance: distance, Parallelism: par}
		if j, err := engine.Get(name); err == nil {
			if _, isShard := j.(interface{ Inner() string }); isShard {
				for _, k := range shardTileCounts {
					o := base
					o.ShardTiles = k
					runs = append(runs, o)
				}
				continue
			}
		}
		runs = append(runs, base)
	}
	return runs
}

func TestStreamConformance(t *testing.T) {
	for _, w := range enginetest.Workloads(400, 9000) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			for _, name := range engine.Names() {
				for _, distance := range []float64{0, 12} {
					runs := conformanceRuns(name, distance)
					if name == engine.Transformers && distance > 0 {
						// As the catalog runs it: indexes over the unexpanded
						// boxes read through grown views, no Options.Distance.
						runs = append(runs, engine.Options{Parallelism: 8, Prebuilt: &engine.Prebuilt{
							A: enginetest.Index(w.A).Grown(distance / 2), B: enginetest.Index(w.B).Grown(distance / 2)}})
					}
					var first []geom.Pair
					for i, opt := range runs {
						collected, err := engine.Run(context.Background(), name,
							enginetest.Copy(w.A), enginetest.Copy(w.B), opt)
						if err != nil {
							t.Fatalf("%s (d=%v K=%d par=%d): Join: %v",
								name, distance, opt.ShardTiles, opt.Parallelism, err)
						}
						if i == 0 {
							first = enginetest.CopyPairs(collected.Pairs)
						} else if !naive.Equal(enginetest.CopyPairs(collected.Pairs), first) {
							t.Errorf("%s (d=%v) on %s: run %d collected %d pairs, run 0 %d — one engine, one predicate, two multisets",
								name, distance, w.Name, i, len(collected.Pairs), len(first))
						}
						streamed, sres := streamPairs(t, name,
							enginetest.Copy(w.A), enginetest.Copy(w.B), opt)
						if !naive.Equal(streamed, enginetest.CopyPairs(collected.Pairs)) {
							t.Errorf("%s (d=%v K=%d par=%d) on %s: streamed %d pairs, collected %d — multisets diverge",
								name, distance, opt.ShardTiles, opt.Parallelism, w.Name,
								len(streamed), len(collected.Pairs))
						}
						if sres.Stats.Refinements != uint64(len(streamed)) {
							t.Errorf("%s (d=%v K=%d par=%d) on %s: stream Refinements=%d but emitted %d",
								name, distance, opt.ShardTiles, opt.Parallelism, w.Name,
								sres.Stats.Refinements, len(streamed))
						}
					}
				}
			}
		})
	}
}

// TestStreamEmptyInputGuard: every engine answers an empty input itself (the
// built-ins in their one skeleton, the sharded forms in their own branch) and
// all must answer alike — valid zero-pair Stats, no emit calls, options still
// validated, and the degenerate shard record for sharded names.
func TestStreamEmptyInputGuard(t *testing.T) {
	nonEmpty := []geom.Element{{ID: 1, Box: geom.NewBox(geom.Point{1, 1, 1}, geom.Point{2, 2, 2})}}
	cases := []struct {
		name string
		a, b []geom.Element
	}{
		{"empty-a", nil, nonEmpty},
		{"empty-b", nonEmpty, nil},
		{"both-empty", nil, nil},
	}
	for _, name := range engine.Names() {
		for _, tc := range cases {
			emitted := 0
			res, err := engine.RunStream(context.Background(), name, tc.a, tc.b,
				engine.Options{}, func(geom.Pair) error { emitted++; return errors.New("must not be called") })
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tc.name, err)
			}
			if emitted != 0 {
				t.Errorf("%s/%s: emit called %d times on empty input", name, tc.name, emitted)
			}
			if res == nil || res.Engine != name || res.Stats.Refinements != 0 || res.Pairs != nil {
				t.Errorf("%s/%s: malformed empty result %+v", name, tc.name, res)
			}
			if res.Stats.JoinTotal != res.Stats.JoinWall+res.Stats.JoinIOTime {
				t.Errorf("%s/%s: Stats not finished", name, tc.name)
			}
			if isShardName(name) && res.Stats.Shard == nil {
				t.Errorf("%s/%s: sharded empty result missing degenerate shard stats", name, tc.name)
			}
			// The guard must also validate options on the streaming path.
			if _, err := engine.RunStream(context.Background(), name, tc.a, tc.b,
				engine.Options{Distance: -1}, func(geom.Pair) error { return nil }); err == nil {
				t.Errorf("%s/%s: negative distance accepted on streaming empty path", name, tc.name)
			}
		}
	}
}

// cancelAtErr is a context that cancels itself the moment its Err method is
// asked for the n-th time: the engines consult ctx.Err() at fixed points
// (engine.run's entry, Prepare's, the skeleton's check between build and
// kernel), so n places a cancellation at exactly one of them.
type cancelAtErr struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int32
	n      int32
}

func (c *cancelAtErr) Err() error {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestStreamCancelBeforeKernel: a cancellation that lands before an engine's
// kernel starts — before the run, before the build, or (the built-ins' one
// post-build check) between build and kernel — ends the join with
// context.Canceled and without a single emit, on inputs full of pairs. The
// sharded forms fan out under a derived context, so only the first two points
// are theirs; mid-kernel cancellation and emit errors are
// TestPropertyStreamCancel and TestPropertyStreamAbort.
func TestStreamCancelBeforeKernel(t *testing.T) {
	w := enginetest.Workloads(600, 9900)[0]
	enginetest.Inflate(w.A, 25)
	if n := len(naive.Join(w.A, w.B)); n < 100 {
		t.Fatalf("workload has %d pairs, too few to tell an early emit", n)
	}
	for _, name := range engine.Names() {
		points := []int32{1, 2, 3}
		opt := engine.Options{}
		if isShardName(name) {
			points, opt.ShardTiles = points[:2], 7
		}
		for _, n := range points {
			inner, cancel := context.WithCancel(context.Background())
			ctx := &cancelAtErr{Context: inner, cancel: cancel, n: n}
			emitted := 0
			res, err := engine.RunStream(ctx, name, enginetest.Copy(w.A), enginetest.Copy(w.B), opt,
				func(geom.Pair) error { emitted++; return nil })
			cancel()
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Errorf("%s canceled at Err call %d: res=%v err=%v, want context.Canceled", name, n, res, err)
			}
			if emitted != 0 {
				t.Errorf("%s canceled at Err call %d: %d pairs emitted before the kernel could have started", name, n, emitted)
			}
			if got := ctx.calls.Load(); got != n {
				t.Errorf("%s canceled at Err call %d: the engine went on to call Err %d times", name, n, got)
			}
		}
	}
}

func isShardName(name string) bool {
	j, err := engine.Get(name)
	if err != nil {
		return false
	}
	_, ok := j.(interface{ Inner() string })
	return ok
}
