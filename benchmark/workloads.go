package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/transformers"
)

// Full-run sizes. The heavy pair and its window are well below the issue's
// 80K×60K / 30 s: the driver's run-time cap forces a 15 s window, and every
// workload must complete ≥200 joins in it even while the sandbox's neighbours
// slow the box by half.
const (
	selectiveN   = 100_000
	heavyA       = 32_000
	heavyB       = 24_000
	appendBatch  = 4096
	deltaLayerN  = 8192 // delta size the catalog layer rows are measured at
	naiveSliceN  = 2000
	appendPeriod = 2 * time.Second
)

// The neuroscience pair is drawn from two pinned pools: -seed decides which
// 32K/24K segments a run joins (and appends), the morphology is part of the
// workload's definition. GenerateAxons × GenerateDendrites is isotropic —
// inmem's three dimension scores agree to 0.1% — so whether a generated pair
// leaves z or another dimension out of its split/sweep choice is a coin flip
// of the generator seed, and leaving z out doubles the comparisons per
// result. Generated per seed, the heavy workloads would measure that coin
// (and a ±25% result size), not the program. The pool the workloads run on
// is one where z is left out, as for 7 of the first 12 generator seeds;
// flipPool is one where z is used, sampled with the same seed in the traced
// phase (inmem.flip_*), so the step between the two sides is a reported
// number. Every run checks which side its sample is on, see pinnedThirdDim.
const (
	poolAxons     = 160_000
	poolDendrites = 120_000
	// pinnedThirdDim is the dimension inmem neither stripes nor sweeps on a
	// sample of mainPool; on a sample of flipPool it uses this one.
	pinnedThirdDim = 2
)

// pool is a pinned pair of generator seeds.
type pool struct {
	seedAxons, seedDendrites int64
	axons, dendrites         []geom.Element // generated on first use
}

var (
	mainPool = &pool{seedAxons: 6, seedDendrites: 106}
	flipPool = &pool{seedAxons: 5, seedDendrites: 105}
)

// workload is one named traffic mix.
type workload struct {
	Name string
	Why  string
	// Path and the request fields of its joins.
	Path         string
	Algorithm    string // "" = daemon default
	NoCache      bool
	Stream       bool
	IncludePairs bool
	// Distances are the distinct request shapes (one join key each); the
	// clients cycle through them. {0} is the intersection join.
	Distances []float64
	// LayerDistance is the shape the traced layer rows are measured at.
	LayerDistance float64
	// Clients is the number of closed-loop join clients.
	Clients int
	// Appends marks the workload whose second connection is the open-loop
	// append writer.
	Appends bool
}

var workloads = []workload{
	{
		Name: "selective",
		Why:  "sparse×dense, ~6 result pairs: plan + snapshot + partition + kernel are the whole request, emit/encode none",
		Path: "/join", Algorithm: "auto", NoCache: true,
		Distances: []float64{0}, Clients: 2,
	},
	{
		Name: "stream-heavy",
		Why:  "~100K pairs per join streamed as NDJSON: kernel emit, engine sink, per-pair encode and flush dominate",
		Path: "/join/distance", Algorithm: "auto", NoCache: true, Stream: true,
		Distances: []float64{25}, LayerDistance: 25, Clients: 2,
	},
	{
		Name: "collect-heavy",
		Why:  "same join collected into one JSON body by the daemon-default transformers engine: the other use of emit/encode, and the only core kernel",
		Path: "/join/distance", NoCache: true, IncludePairs: true,
		Distances: []float64{25}, LayerDistance: 25, Clients: 2,
	},
	{
		Name: "append-replay",
		Why:  "writes beside reads: cached replays, misses after every append, delta merges and memory growth appear only here",
		Path: "/join/distance", Algorithm: "auto", Stream: true,
		Distances: []float64{15, 20, 25}, LayerDistance: 20, Clients: 1, Appends: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// joinBody is the JSON request body of one join shape of w.
func (w workload) joinBody(a, b string, distance float64) []byte {
	body := []byte(`{"a":` + strconv.Quote(a) + `,"b":` + strconv.Quote(b))
	if w.Algorithm != "" {
		body = append(body, `,"algorithm":`+strconv.Quote(w.Algorithm)...)
	}
	if distance > 0 {
		body = append(body, `,"distance":`...)
		body = strconv.AppendFloat(body, distance, 'g', -1, 64)
	}
	if w.NoCache {
		body = append(body, `,"no_cache":true`...)
	}
	if w.Stream {
		body = append(body, `,"stream":true`...)
	}
	if w.IncludePairs {
		body = append(body, `,"include_pairs":true`...)
	}
	return append(body, '}')
}

// inputs are the generated datasets of one run. The daemon receives them as
// uploaded elements and never sees the seed.
type inputs struct {
	NameA, NameB string
	A, B         []geom.Element
	// Stream is what the append writer lands on B, appendBatch elements at
	// a time, and the delta the catalog layer rows are measured with; it
	// always holds at least deltaLayerN elements.
	Stream []geom.Element
	Batch  int
	// Pooled marks a sample of mainPool, whose inmem dimension choice is
	// pinned.
	Pooled bool
}

// deriveSeed maps (seed, tag) to an independent generator seed.
func deriveSeed(seed int64, tag string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, tag)
	return int64(h.Sum64() >> 1)
}

func scaled(n int, scale float64) int {
	if s := int(float64(n) * scale); s > 1 {
		return s
	}
	return 1
}

// drawer hands out pool elements in a seed-shuffled order without
// replacement; past the pool's end it wraps around under fresh IDs, so an
// append stream of any length stays duplicate-free by ID.
type drawer struct {
	pool []geom.Element
	perm []int
	next int
}

func newDrawer(pool []geom.Element, r *rand.Rand) *drawer {
	return &drawer{pool: pool, perm: r.Perm(len(pool))}
}

func (d *drawer) draw(n int) []geom.Element {
	out := make([]geom.Element, n)
	for i := range out {
		round, k := d.next/len(d.pool), d.next%len(d.pool)
		e := d.pool[d.perm[k]]
		e.ID += uint64(round * len(d.pool))
		out[i] = e
		d.next++
	}
	return out
}

// sample draws the pair a run joins and its append stream from p. All three
// neuroscience workloads share one sample per seed: the heavy pair is "the
// same join", and append-replay starts from it.
func (p *pool) sample(seed int64, scale float64, streamLen int) (a, b, stream []geom.Element) {
	if p.axons == nil {
		p.axons = transformers.GenerateAxons(poolAxons, p.seedAxons)
		p.dendrites = transformers.GenerateDendrites(poolDendrites, p.seedDendrites)
	}
	r := rand.New(rand.NewSource(deriveSeed(seed, "neuro")))
	da, db := newDrawer(p.axons, r), newDrawer(p.dendrites, r)
	return da.draw(scaled(heavyA, scale)), db.draw(scaled(heavyB, scale)), db.draw(streamLen)
}

// generate builds the inputs of w from seed, with an append stream of
// batches batches (and never fewer than deltaLayerN elements).
func (w workload) generate(seed int64, scale float64, batches int) inputs {
	batch := scaled(appendBatch, scale)
	streamLen := batches * batch
	if streamLen < deltaLayerN {
		streamLen = deltaLayerN
	}
	if w.Name == "selective" {
		n := scaled(selectiveN, scale)
		extra := transformers.GenerateDenseCluster(streamLen, deriveSeed(seed, "selective/extra"))
		for i := range extra {
			extra[i].ID += uint64(n)
		}
		return inputs{
			NameA: "u", NameB: "dc",
			A:      transformers.GenerateUniform(n, deriveSeed(seed, "selective/a")),
			B:      transformers.GenerateDenseCluster(n, deriveSeed(seed, "selective/b")),
			Stream: extra, Batch: batch,
		}
	}
	in := inputs{NameA: "ax", NameB: "dn", Batch: batch, Pooled: true}
	in.A, in.B, in.Stream = mainPool.sample(seed, scale, streamLen)
	return in
}

// inmemThirdDim runs the inmem engine on a and b as the daemon would and
// returns the dimensions it striped and swept, and the one it left out.
func inmemThirdDim(ctx context.Context, a, b []geom.Element, distance float64) (split, sweep, third int, err error) {
	res, err := engine.Run(ctx, engine.InMem, slices.Clone(a), slices.Clone(b), engine.Options{Distance: distance, Parallelism: 1, DiscardPairs: true})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("inmem dimension check: %w", err)
	}
	st := res.Stats.InMem
	return st.SplitDim, st.SweepDim, geom.Dims*(geom.Dims-1)/2 - st.SplitDim - st.SweepDim, nil
}

// appendCount is how many appends the writer sends in a window: one per
// period, the first a period after the window opens, none at its close.
func appendCount(window, period time.Duration) int {
	return int((window - 1) / period)
}
