// Package enginetest holds the dataset builders shared by the engine,
// planner and shard test suites: the three canonical distributions the
// paper's robustness claim spans, plus helpers every equivalence-style test
// needs. It deliberately does not import internal/engine, so both internal
// test files of that package and external harnesses (property tests, planner
// tests) can use it without import cycles.
package enginetest

import (
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/storage"
)

// Workload is one named dataset pair.
type Workload struct {
	Name string
	A, B []geom.Element
}

// Inflate grows every box by `by` per side so sparse uniform workloads still
// produce pairs. The slice is modified in place and returned.
func Inflate(elems []geom.Element, by float64) []geom.Element {
	for i := range elems {
		elems[i].Box = elems[i].Box.Expand(by)
	}
	return elems
}

// Workloads returns the three distributions cross-engine tests span —
// uniform, clustered (dense-vs-uniform clusters, Fig. 11) and heavily skewed
// (MassiveCluster, Fig. 13) — at n elements per side. Seeds are offset from
// base so suites can pick disjoint data.
func Workloads(n int, base int64) []Workload {
	return []Workload{
		{
			Name: "uniform",
			A:    Inflate(datagen.Uniform(datagen.Config{N: n, Seed: base + 1}), 8),
			B:    Inflate(datagen.Uniform(datagen.Config{N: n, Seed: base + 2}), 8),
		},
		{
			Name: "clustered",
			A:    Inflate(datagen.DenseCluster(datagen.Config{N: n, Seed: base + 3}), 3),
			B:    Inflate(datagen.UniformCluster(datagen.Config{N: n, Seed: base + 4}), 3),
		},
		{
			Name: "skewed",
			A:    Inflate(datagen.MassiveCluster(datagen.Config{N: n, Seed: base + 5}), 3),
			B:    Inflate(datagen.MassiveCluster(datagen.Config{N: n, Seed: base + 6}), 3),
		},
	}
}

// ClusteredPair returns the paper's clustered pairing (Fig. 11) without
// inflation — the planner suite analyzes raw distributions.
func ClusteredPair(n int, seedA, seedB int64) ([]geom.Element, []geom.Element) {
	return datagen.DenseCluster(datagen.Config{N: n, Seed: seedA}),
		datagen.UniformCluster(datagen.Config{N: n, Seed: seedB})
}

// SkewedPair returns the MassiveCluster self-join pairing (Fig. 13).
func SkewedPair(n int, seedA, seedB int64) ([]geom.Element, []geom.Element) {
	return datagen.MassiveCluster(datagen.Config{N: n, Seed: seedA}),
		datagen.MassiveCluster(datagen.Config{N: n, Seed: seedB})
}

// UniformPair returns two independent uniform datasets.
func UniformPair(n int, seedA, seedB int64) ([]geom.Element, []geom.Element) {
	return datagen.Uniform(datagen.Config{N: n, Seed: seedA}),
		datagen.Uniform(datagen.Config{N: n, Seed: seedB})
}

// Copy returns a private copy of elems — partitioning engines reorder their
// inputs in place, so every engine run in a comparison needs its own.
func Copy(elems []geom.Element) []geom.Element {
	return append([]geom.Element(nil), elems...)
}

// CopyPairs returns a private copy of a reference pair set — comparison
// helpers sort their arguments in place.
func CopyPairs(pairs []geom.Pair) []geom.Pair {
	return append([]geom.Pair(nil), pairs...)
}

// Index builds the TRANSFORMERS index of a copy of elems, as the serving
// catalog holds a dataset: engine.Prebuilt takes two of them, grown by half
// the distance (core.Index.Grown) for a distance join.
func Index(elems []geom.Element) *core.Index {
	idx, _, err := core.BuildIndex(storage.NewMemStore(0), Copy(elems), core.IndexConfig{})
	if err != nil {
		panic(err) // a MemStore build fails on a page size too small only
	}
	return idx
}
