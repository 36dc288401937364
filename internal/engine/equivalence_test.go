package engine

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine/enginetest"
	"repro/internal/geom"
	"repro/internal/naive"
)

// TestEngineEquivalence is the cross-engine property test: every registered
// engine must produce the identical sorted pair set on every distribution
// (the shared enginetest workloads: uniform, clustered, skewed). This is
// what catches silent divergence in the adapters — a dedup bug, a lost
// orientation, a partition-boundary miss — the moment it appears.
func TestEngineEquivalence(t *testing.T) {
	for _, w := range enginetest.Workloads(1500, 10) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			reference := naive.Join(w.A, w.B)
			if len(reference) == 0 {
				t.Fatalf("degenerate workload: no reference pairs")
			}
			for _, name := range Names() {
				res, err := Run(context.Background(), name,
					enginetest.Copy(w.A), enginetest.Copy(w.B), Options{})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Engine != name {
					t.Errorf("%s: result stamped %q", name, res.Engine)
				}
				if !naive.Equal(res.Pairs, append([]geom.Pair(nil), reference...)) {
					t.Errorf("%s on %s: %d pairs, reference has %d (or same count, different set)",
						name, w.Name, len(res.Pairs), len(reference))
				}
				if res.Stats.Refinements != uint64(len(reference)) {
					t.Errorf("%s on %s: Refinements=%d, want %d",
						name, w.Name, res.Stats.Refinements, len(reference))
				}
			}
		})
	}
}

// TestEngineEquivalenceDistance runs the same property through the distance
// predicate: the §VIII enlarged-objects reduction must agree across engines
// and with a reference computed on explicitly expanded boxes.
func TestEngineEquivalenceDistance(t *testing.T) {
	const d = 6.0
	a := datagen.MassiveCluster(datagen.Config{N: 1200, Seed: 21})
	b := datagen.Uniform(datagen.Config{N: 1200, Seed: 22})
	ea := make([]geom.Element, len(a))
	for i, e := range a {
		ea[i] = geom.Element{ID: e.ID, Box: e.Box.Expand(d / 2)}
	}
	eb := make([]geom.Element, len(b))
	for i, e := range b {
		eb[i] = geom.Element{ID: e.ID, Box: e.Box.Expand(d / 2)}
	}
	reference := naive.Join(ea, eb)
	if len(reference) == 0 {
		t.Fatal("degenerate distance workload")
	}
	type run struct {
		label, engine string
		opt           Options
	}
	// The catalog's form of the join first: indexes over the unexpanded boxes
	// read through views grown by d/2, and no Options.Distance.
	runs := []run{{"transformers through grown views", Transformers,
		Options{Prebuilt: &Prebuilt{A: enginetest.Index(a).Grown(d / 2), B: enginetest.Index(b).Grown(d / 2)}}}}
	for _, name := range Names() {
		runs = append(runs, run{name, name, Options{Distance: d}})
	}
	for _, r := range runs {
		res, err := Run(context.Background(), r.engine,
			append([]geom.Element(nil), a...), append([]geom.Element(nil), b...), r.opt)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		if !naive.Equal(res.Pairs, append([]geom.Pair(nil), reference...)) {
			t.Errorf("%s: distance join diverges (%d vs %d pairs)", r.label, len(res.Pairs), len(reference))
		}
	}
}

// TestEngineEquivalenceParallel: the transformers engine must produce the
// identical set at any worker count (the other engines ignore Parallelism).
func TestEngineEquivalenceParallel(t *testing.T) {
	a := datagen.MassiveCluster(datagen.Config{N: 2000, Seed: 31})
	b := datagen.DenseCluster(datagen.Config{N: 2000, Seed: 32})
	reference := naive.Join(a, b)
	for _, workers := range []int{1, 4} {
		res, err := Run(context.Background(), Transformers,
			append([]geom.Element(nil), a...), append([]geom.Element(nil), b...),
			Options{Parallelism: workers})
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		if !naive.Equal(res.Pairs, append([]geom.Pair(nil), reference...)) {
			t.Errorf("parallelism %d: pair set diverges", workers)
		}
	}
}

func TestRegistry(t *testing.T) {
	names := Names()
	// The built-ins in the paper's presentation order, then the sharded
	// meta-engines (registered by internal/engine/shard, imported by this
	// package's external property-test file).
	want := []string{Transformers, PBSM, RTree, GIPSY, Grid, InMem, Naive, ShardTransformers, ShardGrid, ShardInMem}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("Names() = %v, want %v", names, want)
	}
	for _, n := range names {
		j, err := Get(n)
		if err != nil {
			t.Fatalf("Get(%q): %v", n, err)
		}
		if j.Name() != n {
			t.Errorf("Get(%q).Name() = %q", n, j.Name())
		}
	}
	if _, err := Get("nope"); err == nil {
		t.Fatal("Get of unknown engine must fail")
	}
}

func TestEngineContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := datagen.Uniform(datagen.Config{N: 100, Seed: 41})
	b := datagen.Uniform(datagen.Config{N: 100, Seed: 42})
	for _, name := range Names() {
		if _, err := Run(ctx, name, a, b, Options{}); err == nil {
			t.Errorf("%s: canceled context must abort the join", name)
		}
	}
}

func TestEngineDiscardPairs(t *testing.T) {
	a := enginetest.Inflate(datagen.Uniform(datagen.Config{N: 800, Seed: 51}), 10)
	b := enginetest.Inflate(datagen.Uniform(datagen.Config{N: 800, Seed: 52}), 10)
	for _, name := range Names() {
		res, err := Run(context.Background(), name,
			append([]geom.Element(nil), a...), append([]geom.Element(nil), b...),
			Options{DiscardPairs: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Pairs) != 0 {
			t.Errorf("%s: DiscardPairs kept %d pairs", name, len(res.Pairs))
		}
		if res.Stats.Refinements == 0 {
			t.Errorf("%s: counters must survive DiscardPairs", name)
		}
	}
}

func TestEngineNegativeDistance(t *testing.T) {
	if _, err := Run(context.Background(), Naive, nil, nil, Options{Distance: -1}); err == nil {
		t.Fatal("negative distance must fail")
	}
}
