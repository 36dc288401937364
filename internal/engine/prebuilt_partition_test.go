package engine_test

import (
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/engine/inmem"
	"repro/internal/naive"
)

// TestInMemPrebuiltPartition: handed a partition through Options.Prebuilt,
// the inmem engine runs only its kernel — same pair multiset as the
// per-request path, collected and streamed, at both worker counts, no build
// time reported, raw inputs ignored — and a partition with an empty side
// yields an empty result instead of tripping the empty-input guard.
func TestInMemPrebuiltPartition(t *testing.T) {
	ctx := context.Background()
	for _, w := range enginetest.Workloads(600, 9700) {
		want, err := engine.Run(ctx, engine.InMem, enginetest.Copy(w.A), enginetest.Copy(w.B), engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		part := inmem.Partition(w.A, w.B, inmem.Config{})
		for _, workers := range []int{1, 8} {
			opt := engine.Options{Parallelism: workers, Prebuilt: &engine.Prebuilt{Partition: part}}
			got, err := engine.Run(ctx, engine.InMem, nil, nil, opt)
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			streamed, res := streamPairs(t, engine.InMem, nil, nil, opt)
			if !naive.Equal(enginetest.CopyPairs(got.Pairs), enginetest.CopyPairs(want.Pairs)) ||
				!naive.Equal(streamed, enginetest.CopyPairs(want.Pairs)) {
				t.Fatalf("%s workers=%d: prebuilt-partition pairs differ from the per-request path", w.Name, workers)
			}
			if got.Stats.BuildWall != 0 || res.Stats.BuildTotal != 0 {
				t.Fatalf("%s: a prebuilt run reports build time %v", w.Name, got.Stats.BuildWall)
			}
			if got.Stats.InMem == nil || got.Stats.Refinements != want.Stats.Refinements {
				t.Fatalf("%s: prebuilt stats %+v, want %d refinements and the stripe record", w.Name, got.Stats, want.Stats.Refinements)
			}
		}
	}
	_, b := enginetest.UniformPair(50, 9701, 9702)
	res, err := engine.Run(ctx, engine.InMem, nil, nil, engine.Options{
		Prebuilt: &engine.Prebuilt{Partition: inmem.Partition(nil, b, inmem.Config{})},
	})
	if err != nil || len(res.Pairs) != 0 || res.Stats.Refinements != 0 {
		t.Fatalf("empty-sided partition: res=%+v err=%v", res, err)
	}
}
