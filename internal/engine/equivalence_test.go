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
// orientation, a partition-boundary miss — the moment it appears. Four more
// pairs ride along, inflated like those until they produce pairs: dense
// against uniform clusters, a dense pair, a massive cluster against uniform
// data, and a dense A against a sparse B, which GIPSY crawls from B and must
// report as (A, B).
func TestEngineEquivalence(t *testing.T) {
	workloads := append(enginetest.Workloads(1500, 10),
		enginetest.Workload{Name: "dense-uniformcluster",
			A: enginetest.Inflate(datagen.DenseCluster(datagen.Config{N: 1500, Seed: 5}), 3),
			B: enginetest.Inflate(datagen.UniformCluster(datagen.Config{N: 1500, Seed: 6}), 3)},
		enginetest.Workload{Name: "dense-dense",
			A: enginetest.Inflate(datagen.DenseCluster(datagen.Config{N: 2000, Seed: 201}), 3),
			B: enginetest.Inflate(datagen.DenseCluster(datagen.Config{N: 2000, Seed: 202}), 3)},
		enginetest.Workload{Name: "massive-uniform",
			A: enginetest.Inflate(datagen.MassiveCluster(datagen.Config{N: 2000, Seed: 203}), 3),
			B: enginetest.Inflate(datagen.Uniform(datagen.Config{N: 2000, Seed: 204}), 3)},
		enginetest.Workload{Name: "dense-a-sparse-b",
			A: datagen.Uniform(datagen.Config{N: 3000, Seed: 8}),
			B: enginetest.Inflate(datagen.Uniform(datagen.Config{N: 40, Seed: 7}), 40)},
	)
	for _, w := range workloads {
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
// predicate at d = 0, 6 and 25: the §VIII enlarged-objects reduction must
// agree across engines and with a reference computed on explicitly expanded
// boxes; that reference must be exactly the pairs within Chebyshev distance d
// of each other (so d = 0 is the plain join), and its size must grow with d.
func TestEngineEquivalenceDistance(t *testing.T) {
	a := enginetest.Inflate(datagen.MassiveCluster(datagen.Config{N: 1200, Seed: 21}), 6)
	b := datagen.Uniform(datagen.Config{N: 1200, Seed: 22})
	prev := -1
	for _, d := range []float64{0, 6, 25} {
		t.Run(fmt.Sprintf("d=%g", d), func(t *testing.T) {
			reference := naive.Join(geom.ExpandedForDistance(a, d), geom.ExpandedForDistance(b, d))
			var within []geom.Pair
			for _, x := range a {
				for _, y := range b {
					if chebyshev(x.Box, y.Box) <= d {
						within = append(within, geom.Pair{A: x.ID, B: y.ID})
					}
				}
			}
			if !naive.Equal(within, append([]geom.Pair(nil), reference...)) {
				t.Fatalf("expanded boxes join %d pairs, %d are within distance %g", len(reference), len(within), d)
			}
			if len(reference) == 0 {
				t.Fatal("degenerate distance workload")
			}
			if len(reference) < prev {
				t.Fatalf("%d pairs within %g, fewer than the %d at a shorter distance", len(reference), d, prev)
			}
			prev = len(reference)
			type run struct {
				label, engine string
				opt           Options
			}
			// The catalog's form of the join first: indexes over the
			// unexpanded boxes read through views grown by d/2, and no
			// Options.Distance.
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
		})
	}
}

// chebyshev is the Chebyshev (largest per-axis gap) distance of two boxes, 0
// when they intersect.
func chebyshev(a, b geom.Box) float64 {
	var worst float64
	for d := 0; d < 3; d++ {
		worst = max(worst, b.Lo[d]-a.Hi[d], a.Lo[d]-b.Hi[d])
	}
	return worst
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
	if _, err := Run(context.Background(), "nope", nil, nil, Options{}); err == nil {
		t.Fatal("Run of unknown engine must fail")
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
