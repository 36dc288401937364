package main

import (
	"context"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/inmem"
	"repro/internal/engine/planner"
	_ "repro/internal/engine/shard" // registers the shard-* engines, as the daemon does
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/transformers"
)

// layerRun measures the layers of the program from outside: each public
// entry point is called with the workload's own inputs inside a
// benchmark-side span, and the medians become the per-layer metrics. A
// layer's self time is its total minus the totals of the layers it calls.
type layerRun struct {
	wl    workload
	in    inputs
	seed  int64
	scale float64
	rec   *recorder

	// chosen is the engine the untraced window's joins resolved to: what the
	// engine rows and the regret are about.
	chosen string
	d      float64 // the workload's LayerDistance
	svc    *server.Service
	tgt    target
	pairs  int // result size of the measured request

	out   map[string]float64
	walls map[string]float64 // engine → wall of one run, for the regret
	notes []string
	err   error // first failure inside a measured call
}

// Every layer is measured until layerBudget has elapsed, for at least
// layerMinIters and at most layerMaxIters iterations, in a full run and in a
// driver run alike, so the two report the same quantity. The issue's "≥20
// iterations" holds for every layer that takes under 20 ms; the budget is
// what lets a traced run (some forty measured calls, the slowest near half a
// second each) fit in the driver's cap of about 35 s a run.
const (
	layerMinIters = 5
	layerMaxIters = 20
	layerBudget   = 400 * time.Millisecond
)

// pairedMetricsFloor is the result size below which per-pair costs are
// reported as 0: dividing a layer's noise by a handful of pairs says nothing.
const pairedMetricsFloor = 1000

func (lr *layerRun) fail(err error) {
	if err != nil && lr.err == nil {
		lr.err = err
	}
}

func (lr *layerRun) notef(format string, args ...any) {
	lr.notes = append(lr.notes, fmt.Sprintf(format, args...))
}

// iterations calls body up to layerMaxIters times, stopping early once
// layerMinIters are done and the budget is spent.
func iterations(body func(i int)) {
	begin := time.Now()
	for i := 0; i < layerMaxIters; i++ {
		if i >= layerMinIters && time.Since(begin) > layerBudget {
			return
		}
		body(i)
	}
}

// once times one call of fn, in milliseconds, under an iteration span. prep,
// when non-nil, runs inside the iteration span but outside the layer span:
// input copies are the iteration's self time, not the layer's (and, made
// right before the call, as cache-warm as the service's own snapshot). So is
// the garbage collection that starts the iteration: each call begins on a
// collected heap and is short of allocating a second one, so no layer pays
// for another's garbage and the totals of separately measured layers can be
// subtracted.
func (lr *layerRun) once(rec *recorder, layer string, i int, prep, fn func()) float64 {
	req := fmt.Sprintf("%s/%s/%d", lr.wl.Name, layer, i)
	root := rec.start("iteration", req, 0)
	runtime.GC()
	if prep != nil {
		prep()
	}
	id := rec.start(layer, req, root)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	rec.end(id)
	rec.end(root)
	return ms(d)
}

// measure times fn repeatedly and returns the sorted durations.
func (lr *layerRun) measure(layer string, prep, fn func()) []float64 {
	var ms []float64
	iterations(func(i int) { ms = append(ms, lr.once(lr.rec, layer, i, prep, fn)) })
	sort.Float64s(ms)
	return ms
}

// med measures fn under a span named after the metric's layer and stores
// the median under name: in milliseconds times scale (1 for *_ms, 1000/ops
// for a *_us metric whose fn makes ops calls).
func (lr *layerRun) med(name string, scale float64, prep, fn func()) float64 {
	layer := strings.TrimSuffix(strings.TrimSuffix(name, "_ms"), "_us")
	v := median(lr.measure(layer, prep, fn)) * scale
	lr.out[name] = v
	return v
}

// self stores total − children under name, clamped at zero: the two sides
// are medians of separate runs, so noise can push a thin layer below it.
func (lr *layerRun) self(name string, total, children float64) float64 {
	v := total - children
	if v < 0 {
		lr.notef("%s: children (%.3f ms) exceed the total (%.3f ms); reported as 0", name, children, total)
		v = 0
	}
	lr.out[name] = v
	return v
}

// perPair is ms spread over n pairs, in ns; 0 below pairedMetricsFloor.
func perPair(ms float64, n int) float64 {
	if n < pairedMetricsFloor || ms < 0 {
		return 0
	}
	return ms * 1e6 / float64(n)
}

// run measures every layer and derives the self times and the regret.
func (lr *layerRun) run(ctx context.Context) error {
	lr.d = lr.wl.LayerDistance
	lr.out = make(map[string]float64)
	lr.walls = make(map[string]float64)

	// An in-process service configured as a default-flag daemon, behind an
	// in-process listener.
	lr.svc = server.NewService(server.Config{Parallelism: 1})
	for _, ds := range []struct {
		name  string
		elems []geom.Element
	}{{lr.in.NameA, lr.in.A}, {lr.in.NameB, lr.in.B}} {
		if _, err := lr.svc.AddDataset(ctx, ds.name, slices.Clone(ds.elems)); err != nil {
			return fmt.Errorf("in-process dataset %s: %w", ds.name, err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: server.NewHandler(lr.svc)}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	var dials atomic.Int64
	hc := newHTTPClient(&dials)
	defer hc.CloseIdleConnections()
	lr.tgt = lr.wl.target(hc, "http://"+ln.Addr().String())

	for _, step := range []func(context.Context){
		lr.serving, lr.engineRows, lr.callCosts, lr.plannerRows, lr.kernels, lr.deltaRows, lr.geomRows,
	} {
		if step(ctx); lr.err != nil {
			return lr.err
		}
	}
	lr.derive()
	return nil
}

// serving measures the request through server.NewHandler and through
// Service.Join/JoinStream directly, the tracing overhead, and the gap to the
// program's own spans.
func (lr *layerRun) serving(ctx context.Context) {
	wl, in := lr.wl, lr.in
	body := wl.joinBody(in.NameA, in.NameB, lr.d)
	buf := make([]byte, 64<<10)

	// One untimed request fills the cache where the workload uses it, so
	// append-replay's rows describe the replay its p50 consists of.
	warm, _, err := lr.tgt.join(ctx, body, buf)
	if err != nil {
		lr.fail(fmt.Errorf("in-process warm-up: %w", err))
		return
	}
	lr.pairs = warm.doc.Summary.Results
	if lr.chosen == "" {
		lr.chosen = warm.doc.Summary.Algorithm
	}

	// server.http, alternately with the span recorder on and — for the
	// tracing overhead — off.
	var respBytes int64
	httpCall := func() {
		s, _, err := lr.tgt.join(ctx, body, buf)
		lr.fail(err)
		respBytes = s.bytes
	}
	var on, off []float64
	iterations(func(i int) {
		on = append(on, lr.once(lr.rec, "server.http", i, nil, httpCall))
		off = append(off, lr.once(nil, "server.http", i, nil, httpCall))
	})
	lr.out["server.http.total_ms"] = median(sortedCopy(on))
	lr.out["server.http.resp_bytes"] = float64(respBytes)
	lr.out["trace.overhead_share"] = ratio(median(sortedCopy(on))-median(sortedCopy(off)), median(sortedCopy(off)))

	// server.service: the same request without HTTP, traced the way the
	// handler traces every join, its emit only counting.
	params := server.JoinParams{Distance: lr.d, NoCache: wl.NoCache, Algorithm: wl.Algorithm}
	engines := map[string]int{}
	total := lr.med("server.service.total_ms", 1, nil, func() {
		tr := obs.New(obs.NewRequestID())
		jctx := obs.NewContext(server.WithTenant(ctx, server.TenantInfo{ID: server.DefaultTenant}), tr)
		var out *server.JoinOutcome
		var err error
		if wl.Stream {
			n := 0
			out, err = lr.svc.JoinStream(jctx, in.NameA, in.NameB, params, func(geom.Pair) error { n++; return nil })
		} else {
			out, err = lr.svc.Join(jctx, in.NameA, in.NameB, params)
		}
		tr.Finish()
		if err != nil {
			lr.fail(err)
			return
		}
		engines[out.Summary.Algorithm]++
	})
	if lr.err == nil && engines[lr.chosen] == 0 {
		lr.notef("in-process service resolved %v, the window's joins %q: server.service.self_ms mixes engines", engines, lr.chosen)
	}

	// Cross-check against the program's own instrumentation: X-Trace
	// requests, whose top-level spans cover the service call. The time the
	// program attributes to the consumer's emit is left out — over HTTP it
	// is NDJSON encoding, in the direct calls above a counter.
	var sums []float64
	lr.measure("xcheck.traced-request", nil, func() {
		_, doc, err := lr.tgt.decoded(ctx, body, http.Header{"X-Trace": {"1"}})
		if err != nil || doc.Trace == nil {
			lr.fail(fmt.Errorf("X-Trace request: trace=%v err=%v", doc.Trace != nil, err))
			return
		}
		sums = append(sums, spansWithoutConsumer(doc.Trace))
	})
	if lr.err != nil {
		return
	}
	inside := median(sortedCopy(sums))
	gap := ratio(math.Abs(total-inside), total)
	lr.out["xcheck.span_gap_share"] = gap
	// A replay's two sides are both far below a millisecond; a large share
	// of that is not worth a warning.
	if gap > 0.15 && math.Abs(total-inside) > 1 {
		lr.notef("xcheck: the program's top-level spans sum to %.3f ms, server.service.total_ms is %.3f ms (gap %.0f%%)", inside, total, gap*100)
	}
}

// spansWithoutConsumer sums a trace's top-level span durations and takes out
// the time the program attributes to the caller's emit: the stream-emit
// record of an executed stream, the whole replay span of a cache hit.
func spansWithoutConsumer(t *obs.TraceDTO) float64 {
	ms := 0.0
	for _, s := range t.Spans {
		if s.Name != "replay" {
			ms += s.DurMS
		}
	}
	if emit := t.Find("stream-emit"); emit != nil {
		ms -= emit.DurMS
	}
	return ms
}

// engineRows runs the chosen engine through the registry, streamed and
// collected, on the inputs the service would hand it.
func (lr *layerRun) engineRows(ctx context.Context) {
	in := lr.in
	var ca, cb []geom.Element
	prep := func() { ca, cb = slices.Clone(in.A), slices.Clone(in.B) }
	opt := engine.Options{Distance: lr.d, Parallelism: 1}
	if lr.chosen == engine.Transformers {
		// The catalog path: prebuilt, pre-expanded indexes and no elements.
		cat := lr.svc.Catalog()
		ha, err := cat.Acquire(ctx, in.NameA, lr.d)
		if err != nil {
			lr.fail(err)
			return
		}
		defer ha.Release()
		hb, err := cat.Acquire(ctx, in.NameB, lr.d)
		if err != nil {
			lr.fail(err)
			return
		}
		defer hb.Release()
		opt = engine.Options{Parallelism: 1, Concurrent: true, Prebuilt: &engine.Prebuilt{A: ha.Index.Core(), B: hb.Index.Core()}}
		prep = nil
	}
	lr.med("engine.stream_ms", 1, prep, func() {
		_, err := engine.RunStream(ctx, lr.chosen, ca, cb, opt, func(geom.Pair) error { return nil })
		lr.fail(err)
	})
	lr.med("engine.collect_ms", 1, prep, func() {
		_, err := engine.Run(ctx, lr.chosen, ca, cb, opt)
		lr.fail(err)
	})
}

// callCosts measures the cheap per-request calls — admission, cache, index
// acquisition — amortised over ops calls a sample, and the snapshot copy.
func (lr *layerRun) callCosts(ctx context.Context) {
	const ops = 1000
	in := lr.in
	pool := server.NewPool(server.PoolConfig{})
	lr.med("server.pool.do_us", 1000.0/ops, nil, func() {
		for i := 0; i < ops; i++ {
			lr.fail(pool.Do(ctx, server.Request{Cost: 1}, func() error { return nil }))
		}
	})

	cache := server.NewJoinCache(0, 0)
	entry := &server.CachedJoin{Pairs: make([]geom.Pair, lr.pairs)}
	key := server.JoinKey{A: in.NameA, B: in.NameB, Predicate: "distance", Distance: lr.d, Algorithm: lr.chosen}
	cache.Put(key, entry)
	lr.med("server.cache.get_us", 1000.0/ops, nil, func() {
		for i := 0; i < ops; i++ {
			cache.Get(key)
		}
	})
	lr.med("server.cache.put_us", 1000.0/ops, nil, func() {
		k := key
		for i := 0; i < ops; i++ {
			k.DeltaEpochB = uint64(i + 1)
			cache.Put(k, entry)
		}
	})

	cat := lr.svc.Catalog()
	acquire := func() {
		h, err := cat.Acquire(ctx, in.NameA, lr.d)
		if err != nil {
			lr.fail(err)
			return
		}
		h.Release()
	}
	acquire() // builds the expanded variant if no join has yet
	lr.med("server.catalog.acquire_us", 1000.0/ops, nil, func() {
		for i := 0; i < ops; i++ {
			acquire()
		}
	})
	lr.med("server.catalog.snapshot_ms", 1, nil, func() {
		_, _, _, _, err := cat.Snapshot(in.NameA)
		lr.fail(err)
		_, _, _, _, err = cat.Snapshot(in.NameB)
		lr.fail(err)
	})
}

func (lr *layerRun) plannerRows(context.Context) {
	var sa, sb planner.DatasetStats
	lr.med("planner.analyze_ms", 1, nil, func() {
		sa, sb = planner.Analyze(lr.in.A), planner.Analyze(lr.in.B)
	})
	// The service's planning configuration, see Service.plannerConfig.
	cfg := planner.Config{PrebuiltTransformers: true, ShardWorkers: 1, Correct: planner.NewCorrector().Bind(lr.in.NameA, lr.in.NameB)}
	const ops = 100
	lr.med("planner.plan_us", 1000.0/ops, nil, func() {
		for i := 0; i < ops; i++ {
			planner.Plan(planner.ExpandStats(sa, lr.d), planner.ExpandStats(sb, lr.d), cfg)
		}
	})
}

// kernels measures each join kernel on private copies of the inputs:
// partitioning apart from joining, index builds apart from the join on the
// prebuilt pair, and one whole run per engine the planner could have chosen.
func (lr *layerRun) kernels(ctx context.Context) {
	in := lr.in
	sizeAB := float64(len(in.A) + len(in.B))
	var ca, cb []geom.Element
	copies := func() { ca, cb = slices.Clone(in.A), slices.Clone(in.B) }

	// The boxes the adapters hand the kernels: grown by d/2 per side.
	var xa, xb []geom.Element
	lr.med("engine.prepare_ms", 1, copies, func() {
		var err error
		xa, xb, _, err = engine.Prepare(ctx, ca, cb, engine.Options{Distance: lr.d})
		lr.fail(err)
	})
	if lr.err != nil {
		return
	}
	expanded := func() { ca, cb = slices.Clone(xa), slices.Clone(xb) }

	var part *inmem.Partitioned
	lr.med("inmem.partition_ms", 1, expanded, func() {
		part = inmem.Partition(ca, cb, inmem.Config{})
	})
	var ist inmem.Stats
	lr.med("inmem.join_ms", 1, nil, func() {
		ist = part.Join(inmem.JoinConfig{Parallelism: 1}, func(uint64, uint64) {})
	})
	lr.out["inmem.tests_per_result"] = ratio(float64(ist.Comparisons), float64(ist.Results))
	lr.out["inmem.replicated_share"] = ratio(float64(ist.ReplicatedA+ist.ReplicatedB), sizeAB)
	if in.Pooled {
		lr.flipRows(ctx)
	}

	var ia, ib *transformers.Index
	lr.med("core.build_ms", 1, expanded, func() {
		var err error
		ia, err = transformers.BuildIndex(ca, transformers.IndexOptions{})
		lr.fail(err)
		ib, err = transformers.BuildIndex(cb, transformers.IndexOptions{})
		lr.fail(err)
	})
	if lr.err != nil {
		return
	}
	var cres *transformers.JoinResult
	lr.walls[engine.Transformers] = lr.med("core.join_ms", 1, nil, func() {
		var err error
		cres, err = transformers.Join(ia, ib, transformers.JoinOptions{DiscardPairs: true, Concurrent: true})
		lr.fail(err)
	})
	if lr.err != nil {
		return
	}
	lr.out["core.pages_read"] = float64(cres.Stats.IO.Reads)
	lr.out["core.tests_per_result"] = ratio(float64(cres.Stats.Comparisons), float64(cres.Stats.Results))

	// Whole runs through the registry, results discarded: the walls the
	// planner's choice is compared on.
	opt := engine.Options{Distance: lr.d, Parallelism: 1, DiscardPairs: true}
	var last *engine.Result
	whole := func(name string) func() {
		return func() {
			res, err := engine.Run(ctx, name, ca, cb, opt)
			lr.fail(err)
			last = res
		}
	}
	lr.walls[engine.Grid] = lr.med("grid.run_ms", 1, copies, whole(engine.Grid))
	lr.walls[engine.ShardInMem] = lr.med("shard.run_ms", 1, copies, whole(engine.ShardInMem))
	if lr.err != nil {
		return
	}
	if sh := last.Stats.Shard; sh != nil {
		lr.out["shard.replicated_share"] = ratio(float64(sh.ReplicatedA+sh.ReplicatedB), sizeAB)
		lr.out["shard.dedup_drop_share"] = ratio(float64(sh.DedupDropped), float64(last.Stats.Refinements+sh.DedupDropped))
	}
	lr.walls[engine.InMem] = lr.med("inmem.run_ms", 1, copies, whole(engine.InMem))
	if _, ok := lr.walls[lr.chosen]; !ok {
		lr.walls[lr.chosen] = median(lr.measure("engine.run", copies, whole(lr.chosen)))
	}
}

// flipRows measures the inmem join on the other side of its dimension choice:
// the same seed's sample of flipPool, where z is striped or swept. Set beside
// inmem.join_ms and inmem.tests_per_result, whose sample leaves z out, it is
// the step a changed ranking (or a regenerated pool) would move the heavy
// workloads by.
func (lr *layerRun) flipRows(ctx context.Context) {
	fa, fb, _ := flipPool.sample(lr.seed, lr.scale, 0)
	xa, xb, _, err := engine.Prepare(ctx, fa, fb, engine.Options{Distance: lr.d})
	if err != nil {
		lr.fail(err)
		return
	}
	part := inmem.Partition(xa, xb, inmem.Config{})
	var st inmem.Stats
	lr.med("inmem.flip_join_ms", 1, nil, func() {
		st = part.Join(inmem.JoinConfig{Parallelism: 1}, func(uint64, uint64) {})
	})
	lr.out["inmem.flip_tests_per_result"] = ratio(float64(st.Comparisons), float64(st.Results))
	if third := geom.Dims*(geom.Dims-1)/2 - st.SplitDim - st.SweepDim; third == pinnedThirdDim {
		lr.notef("inmem.flip_*: the flip pool's sample leaves out dimension %d as well; the two sides are the same side", third)
	}
}

// deltaRows measures the ingest path on a catalog of its own, so appends and
// merges never touch the datasets the other rows use: B's append stream
// lands batch by batch up to deltaLayerN elements, is viewed, then merged.
func (lr *layerRun) deltaRows(ctx context.Context) {
	in := lr.in
	cat := server.NewCatalog(0, 0)
	delta := in.Stream[:deltaLayerN]
	var appendMS, viewMS []float64
	mergeMS := lr.measure("server.catalog.merge", func() {
		cat.Put(in.NameB, slices.Clone(in.B))
		h, err := cat.Acquire(ctx, in.NameB, 0)
		if err != nil {
			lr.fail(err)
			return
		}
		defer h.Release()
		for off := 0; off < len(delta); off += in.Batch {
			end := off + in.Batch
			if end > len(delta) {
				end = len(delta)
			}
			t0 := time.Now()
			_, err := cat.Append(in.NameB, delta[off:end])
			appendMS = append(appendMS, ms(time.Since(t0)))
			lr.fail(err)
		}
		t0 := time.Now()
		cat.DeltaView(h)
		viewMS = append(viewMS, ms(time.Since(t0)))
	}, func() {
		_, err := cat.MergeDelta(ctx, in.NameB)
		lr.fail(err)
	})
	lr.out["server.catalog.merge_ms"] = median(mergeMS)
	lr.out["server.catalog.append_us"] = median(sortedCopy(appendMS)) * 1000
	lr.out["server.catalog.deltaview_ms"] = median(sortedCopy(viewMS))
}

func (lr *layerRun) geomRows(context.Context) {
	var soaB *geom.SoA
	lr.med("geom.soa_make_ms", 1, nil, func() {
		geom.MakeSoA(lr.in.A)
		soaB = geom.MakeSoA(lr.in.B)
	})
	// B filtered with A's median box (the element with the median lower x).
	byX := slices.Clone(lr.in.A)
	sort.Slice(byX, func(i, j int) bool { return byX[i].Box.Lo[0] < byX[j].Box.Lo[0] })
	q := byX[len(byX)/2].Box
	scratch := make([]int32, 0, soaB.Len())
	ms := median(lr.measure("geom.filter", nil, func() {
		scratch = soaB.FilterIntersect(q, 0, soaB.Len(), scratch[:0])
	}))
	lr.out["geom.filter_ns_per_box"] = ratio(ms*1e6, float64(soaB.Len()))
}

// derive computes what is not measured directly: each layer's self time
// (total minus the layers it calls), the per-pair costs, and the regret of
// the planner's choice against the fastest of the measured engine walls.
func (lr *layerRun) derive() {
	o := lr.out
	// The kernel under the chosen engine's adapter.
	kernel, prepare := lr.walls[lr.chosen]-o["engine.prepare_ms"], o["engine.prepare_ms"]
	switch lr.chosen {
	case engine.Transformers:
		kernel, prepare = o["core.join_ms"], 0
	case engine.InMem:
		kernel = o["inmem.partition_ms"] + o["inmem.join_ms"]
	}
	engineSelf := lr.self("engine.self_ms", o["engine.stream_ms"], kernel)
	o["engine.emit_ns_per_pair"] = perPair(engineSelf-prepare, lr.pairs)

	// What the service calls on this workload's path. Replays are served
	// before admission and touch neither catalog nor engine.
	engineMS := o["engine.stream_ms"]
	if !lr.wl.Stream {
		engineMS = o["engine.collect_ms"]
	}
	children := o["planner.plan_us"]/1000 + o["server.pool.do_us"]/1000 + engineMS
	switch {
	case !lr.wl.NoCache:
		children = o["planner.plan_us"]/1000 + o["server.cache.get_us"]/1000
	case lr.chosen == engine.Transformers:
		children += 2 * o["server.catalog.acquire_us"] / 1000
	default:
		children += o["server.catalog.snapshot_ms"]
	}
	lr.self("server.service.self_ms", o["server.service.total_ms"], children)
	httpSelf := lr.self("server.http.self_ms", o["server.http.total_ms"], o["server.service.total_ms"])
	o["server.http.self_ns_per_pair"] = perPair(httpSelf, lr.pairs)

	fastest, fastestName := lr.walls[lr.chosen], lr.chosen
	for name, w := range lr.walls {
		if w < fastest {
			fastest, fastestName = w, name
		}
	}
	o["planner.regret_share"] = ratio(lr.walls[lr.chosen]-fastest, fastest)
	if fastestName != lr.chosen {
		lr.notef("planner: joins ran %s (%.1f ms a run here), %s takes %.1f ms", lr.chosen, lr.walls[lr.chosen], fastestName, fastest)
	}
}
