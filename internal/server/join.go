package server

import (
	"context"
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/transformers"
)

// JoinParams selects a join execution.
type JoinParams struct {
	// Distance > 0 runs the distance join of §VIII: pairs whose boxes come
	// within the given Chebyshev distance. 0 is the plain intersection join.
	Distance float64
	// NoCache bypasses the result cache (both lookup and fill).
	NoCache bool
	// Algorithm names the engine to run: a ServedEngines entry,
	// AlgorithmAuto to let the planner pick, or empty for the service
	// default.
	Algorithm string
}

// JoinOutcome is one join result: pairs in A/B orientation (the caller's
// own slice), the cost summary, and whether the cache served it.
type JoinOutcome struct {
	Pairs   []transformers.Pair
	Summary JoinSummary
	Cached  bool
}

// joinKey assembles the cache key for one join execution. The delta epochs
// pin the append-buffer state the result composed, so an append is an
// immediate cache miss without a version bump.
func joinKey(a, b string, va, vb, ea, eb uint64, distance float64, algorithm string) JoinKey {
	return JoinKey{A: a, B: b, VersionA: va, VersionB: vb, DeltaEpochA: ea, DeltaEpochB: eb, Predicate: predicateOf(distance), Distance: distance, Algorithm: algorithm}
}

// predicateOf names a join's predicate in cache keys and join records.
func predicateOf(distance float64) string {
	if distance > 0 {
		return "distance"
	}
	return "intersects"
}

// admitted runs fn on one pool slot, bracketing the queue wait with an
// "admission-wait" span (queue depth at arrival) and the slot time with a
// top-level "execute" span whose context fn receives, so engine and catalog
// spans nest under it. The execute span is returned (nil when untraced or
// never admitted) so a streamed join can attach its emit record to it after
// the fact.
func (s *Service) admitted(ctx context.Context, fn func(ctx context.Context) error) (*obs.Span, error) {
	_, wait := obs.Start(ctx, "admission-wait")
	if wait != nil {
		wait.Add("queue_depth", int64(s.pool.QueueDepth()))
	}
	var exec *obs.Span
	err := s.pool.Do(ctx, admission(ctx), func() error {
		wait.End()
		ectx, ex := obs.Start(ctx, "execute")
		exec = ex
		defer ex.End()
		return fn(ectx)
	})
	wait.End() // idempotent: closes the span when admission failed
	return exec, err
}

// execution is what one executed (non-cached) join hands back: the engine
// result, the cache key of the state it actually ran on, and the per-request
// facts the summary reports.
type execution struct {
	res   *engine.Result
	key   JoinKey
	delta *DeltaSummary
	// span is the "execute" span (nil when untraced or never admitted).
	span *obs.Span
}

// executeJoin runs the planned join on one worker inside one admission — one
// slot — so admission control bounds all expensive work, including the
// single-flight partition build an inmem acquisition can trigger. Waiting on
// another request's in-flight partition build holds the slot, for no longer
// than the request's own deadline, and never needs a second admission, so
// slots cannot deadlock. One step per served engine (planJoin admits no
// other) acquires the structure the catalog holds for it and each side's
// view; the rest is shared. The structure covers base×base: transformers'
// two prebuilt indexes (for distance joins, their grown views), or inmem's
// pair partition. A non-empty delta composes on top (deltaJoin) against the
// same views — read through the structure's own generations, so they
// describe what it covers even if a merge installs a successor mid-join.
// Every pair, of the base join and of the delta sub-joins, leaves through
// emit.
func (s *Service) executeJoin(ctx context.Context, a, b string, p JoinParams, jp joinPlan, emit engine.EmitFunc) (execution, error) {
	var ex execution
	run := func(ctx context.Context) error {
		var (
			va, vb view
			pre    engine.Prebuilt
			build  time.Duration // the partition build this request paid, or none
		)
		switch jp.algo {
		case engine.Transformers:
			cctx, cat := obs.Start(ctx, "catalog")
			ha, err := s.cat.Acquire(cctx, a, p.Distance)
			if err != nil {
				cat.End()
				return err
			}
			hb, err := s.cat.Acquire(cctx, b, p.Distance)
			cat.End()
			if err != nil {
				return err
			}
			va, vb = s.cat.viewOf(ha), s.cat.viewOf(hb)
			pre = engine.Prebuilt{A: ha.Index.Core(), B: hb.Index.Core()}
		case engine.InMem:
			pctx, span := obs.Start(ctx, "partition")
			h, err := s.cat.AcquirePartition(pctx, a, b, p.Distance)
			span.End()
			if err != nil {
				return err
			}
			if span != nil {
				hit := int64(0)
				if h.Hit {
					hit = 1
				}
				span.Add("hit", hit)
				span.Add("bytes", int64(h.Partition.Bytes()))
				span.Add("stripes", int64(h.Partition.Stripes()))
				span.Add("kept", int64(h.Partition.Kept()))
			}
			va, vb, build = h.a, h.b, h.Build
			pre = engine.Prebuilt{Partition: h.Partition}
		}
		ex.key = joinKey(a, b, va.version, vb.version, va.epoch, vb.epoch, p.Distance, jp.algo)
		var err error
		ex.res, err = engine.RunStream(ctx, jp.algo, nil, nil, engine.Options{Prebuilt: &pre}, emit)
		if err != nil {
			return err
		}
		ex.res.Stats.BuildWall += build
		ex.res.Stats.BuildTotal += build
		if len(va.delta)+len(vb.delta) > 0 {
			ex.delta, err = s.deltaJoin(ctx, ex.res, va, vb, p.Distance, emit)
		}
		return err
	}
	var err error
	ex.span, err = s.admitted(ctx, run)
	if err != nil {
		s.noteOutcome(ctx, err)
	}
	return ex, err
}

// deltaJoin composes the append-delta sub-joins of one join over two views:
// base×delta, delta×base and delta×delta, into the same emit as the base
// join — so buffering and delivery apply to delta pairs exactly as to base
// pairs. Each is a grid hash join, all three in one grid.Grid, built over the
// smaller side and probed with the other, each pair emitted A-first. Both
// sides are read in place — the views' base arrays and delta headers — with
// every box grown by distance/2 as the grid takes it, as the base join's
// structure grows its own; so the composition allocates the grid over the
// smaller side, never anything in proportion to the base. The three
// sub-joins partition the non-base×base pairs of
// (baseA ∪ deltaA)×(baseB ∪ deltaB), so the composed result is multiset-equal
// to a full rebuild by construction; empty sides are skipped. Their
// comparisons, pairs and wall time are added to res's stats, which the
// summary reports and the wall table takes.
func (s *Service) deltaJoin(ctx context.Context, res *engine.Result, va, vb view, distance float64, emit engine.EmitFunc) (*DeltaSummary, error) {
	_, span := obs.Start(ctx, "delta-join")
	sum := &DeltaSummary{ElementsA: len(va.delta), ElementsB: len(vb.delta)}
	var (
		g             grid.Grid
		built, probed int
		comparisons   uint64
		err           error // the first emit error, or the context's
	)
	emitPair := func(a, b geom.Element) {
		if err == nil {
			if err = emit(geom.Pair{A: a.ID, B: b.ID}); err == nil {
				sum.Pairs++
			}
		}
	}
	start := time.Now()
	for _, sj := range [3]struct{ ea, eb geom.Chunked }{
		{va.base, geom.ChunkedOf(vb.delta)},
		{geom.ChunkedOf(va.delta), vb.base},
		{geom.ChunkedOf(va.delta), geom.ChunkedOf(vb.delta)},
	} {
		na, nb := sj.ea.Len(), sj.eb.Len()
		if na == 0 || nb == 0 {
			continue
		}
		if err = ctx.Err(); err != nil {
			break
		}
		a := grid.Batch{Runs: sj.ea.Chunks(), Grow: distance / 2}
		b := grid.Batch{Runs: sj.eb.Chunks(), Grow: distance / 2}
		if na <= nb {
			comparisons += g.Join(a, b, emitPair)
		} else {
			comparisons += g.Join(b, a, func(be, ae geom.Element) { emitPair(ae, be) })
		}
		built += min(na, nb)
		probed += max(na, nb)
		sum.SubJoins++
		if err != nil {
			break
		}
	}
	wall := time.Since(start)
	span.End()
	span.Add("delta_a", int64(sum.ElementsA))
	span.Add("delta_b", int64(sum.ElementsB))
	span.Add("sub_joins", int64(sum.SubJoins))
	span.Add("build", int64(built))
	span.Add("probe", int64(probed))
	span.Add("comparisons", int64(comparisons))
	span.Add("pairs", int64(sum.Pairs))
	if err != nil {
		return nil, err
	}
	res.Stats.Candidates += comparisons
	res.Stats.Refinements += sum.Pairs
	res.Stats.JoinWall += wall
	res.Stats.JoinTotal += wall
	s.deltaJoins.Add(1)
	return sum, nil
}

// summarize flattens one executed result into the cacheable cost summary and
// tallies the per-engine counter.
func (s *Service) summarize(algo string, res *engine.Result) JoinSummary {
	s.countEngineJoin(algo)
	return JoinSummary{
		Algorithm:       algo,
		Results:         res.Stats.Refinements,
		Comparisons:     res.Stats.Candidates,
		MetaComparisons: res.Stats.MetaComparisons,
		JoinWallMS:      float64(res.Stats.JoinWall) / float64(time.Millisecond),
		ModeledIOMS:     float64(res.Stats.JoinIOTime) / float64(time.Millisecond),
		Reads:           res.Stats.PagesRead,
		BuildMS:         float64(res.Stats.BuildTotal) / float64(time.Millisecond),
	}
}

// Join runs (or serves from cache) the join of datasets a and b through the
// requested (or planned) engine. Pair orientation follows the argument
// order. The pairs are decoded once into the returned slice.
func (s *Service) Join(ctx context.Context, a, b string, p JoinParams) (*JoinOutcome, error) {
	sink := &collector{collect: true}
	defer sink.release()
	out, _, err := s.join(ctx, a, b, p, sink)
	if err != nil {
		return nil, err
	}
	out.Pairs = sink.pairs()
	return out, nil
}

// JoinStream runs the join of datasets a and b, delivering each result pair
// to emit as the engine finds it instead of returning the result. A cache hit
// decodes the cached pairs into emit; a miss hands emit the engine's pairs as
// they surface, so server-side pair buffering is bounded by the engine's
// worker budget plus the cache fill (see collector). An emit error (a slow consumer
// gone away, the request context canceled) aborts the underlying join and is
// returned. The returned outcome carries the summary with Pairs nil.
func (s *Service) JoinStream(ctx context.Context, a, b string, p JoinParams, emit func(transformers.Pair) error) (*JoinOutcome, error) {
	sink := &collector{consumer: emit}
	defer sink.release()
	out, _, err := s.join(ctx, a, b, p, sink)
	return out, err
}

// collector is where every pair of a served join lands — the one place the
// service buffers a result pair — and what the join's caller reads the answer
// from. The caller says how the pairs leave: to consumer as they are found (a
// streamed join), to itself afterwards (collect: the library Join, an
// include_pairs response), or not at all (a summary). join buffers only for
// who will read: unbounded for a collecting caller, up to the cache's
// per-entry threshold for the cache alone — dropped the moment the result
// provably exceeds it, so an arbitrarily large join streams in bounded memory
// and is simply not cached — and nothing when neither reads. The engine layer
// serializes emit calls and completes them before the join returns, so the
// state needs no locking.
type collector struct {
	consumer func(transformers.Pair) error
	collect  bool
	// replayRuns, when set, takes a streamed cache hit whole instead of
	// consumer taking it pair by pair, and answers how many pairs it took.
	replayRuns func(*pairRuns) (int, error)

	// The buffered pairs: encoded in pooled chunks as emit gathered them, or —
	// for a collecting caller once the cache holds the result, or served it —
	// the cache entry's sealed runs.
	runs pairRuns

	keep bool // still buffering
	max  int  // buffer cap; negative = unbounded

	// timed accumulates the time spent inside consumer in emitDur — two clock
	// reads per pair, paid by every streamed request that carries a trace,
	// which every HTTP join does (handleJoin): only an in-process JoinStream
	// without one skips them.
	timed    bool
	emitDur  time.Duration
	streamed uint64 // pairs consumer accepted
	failed   bool   // consumer refused one
}

func (c *collector) emit(pr transformers.Pair) error {
	if c.keep {
		if c.max < 0 || c.runs.n < c.max {
			c.runs.add(pr)
		} else {
			c.keep = false // over threshold: never cached
			c.release()
		}
	}
	if c.consumer == nil {
		return nil
	}
	var err error
	if c.timed {
		t0 := time.Now()
		err = c.consumer(pr)
		c.emitDur += time.Since(t0)
	} else {
		err = c.consumer(pr)
	}
	if err != nil {
		c.failed = true
		return err
	}
	c.streamed++
	return nil
}

// pairs returns the buffered pairs decoded into one exact-size slice the
// caller may keep (nil when there are none).
func (c *collector) pairs() []transformers.Pair {
	if c.runs.n == 0 {
		return nil
	}
	flat := make([]transformers.Pair, c.runs.n)
	d := c.runs.reader()
	for i := range flat {
		flat[i] = d.next()
	}
	return flat
}

// release gives the chunks back, unless they are the cache's; the collector
// then holds no pairs. Every caller of join defers it.
func (c *collector) release() { c.runs.release() }

// settleStream books what a streamed join (executed or replayed) delivered.
// aborted_streams means the consumer ended a stream that had begun: its emit
// failed, or its context went away after pairs flowed. Server-side execution
// failures and cancellations before the first pair (e.g. a client giving up
// while queued) are not aborts.
func (s *Service) settleStream(c *collector, err error) {
	s.streamedPairs.Add(c.streamed)
	ctxGone := errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
	if c.failed || (c.streamed > 0 && ctxGone) {
		s.abortedStreams.Add(1)
	}
}

// join is the one join path under Join, JoinStream and the HTTP handlers:
// plan, cache, execute, summarize, record. The pairs go where sink says (see
// collector), and a collecting caller reads them from sink afterwards; the
// outcome's Pairs stays nil. Beside the outcome it names the resolved engine,
// which an error raised after planning still has — a join that dies at its
// deadline is observed under the engine that was running it.
func (s *Service) join(ctx context.Context, a, b string, p JoinParams, sink *collector) (*JoinOutcome, string, error) {
	_, planSpan := obs.Start(ctx, "plan")
	jp, err := s.planJoin(a, b, p)
	planSpan.End()
	if err != nil {
		return nil, "", err
	}
	annotatePlan(planSpan, jp)
	streaming := sink.consumer != nil
	if !p.NoCache {
		_, cacheSpan := obs.Start(ctx, "cache")
		res, ok := s.cache.Get(joinKey(a, b, jp.a.version, jp.b.version, jp.a.epoch, jp.b.epoch, p.Distance, jp.algo))
		cacheSpan.End()
		if ok {
			cacheSpan.Add("hit", 1)
			out := &JoinOutcome{Summary: res.Summary, Cached: true}
			out.Summary.Planner = jp.plan // report this request's planning, not the filler's
			if streaming {
				if err := s.replay(ctx, &res.runs, sink); err != nil {
					return nil, jp.algo, err
				}
			} else if sink.collect {
				sink.runs = res.runs // read in place: sealed, never given back
			}
			return out, jp.algo, nil
		}
	}

	// Buffer for whoever reads the pairs afterwards: all of them for a
	// collecting caller, a cacheable result's worth for the cache alone.
	sink.keep, sink.max = sink.collect || !p.NoCache, -1
	if !sink.collect {
		sink.max = s.cache.MaxPairs()
	}
	sink.timed = streaming && obs.Enabled(ctx)
	ex, err := s.executeJoin(ctx, a, b, p, jp, sink.emit)
	if streaming {
		// The accumulated consumer time hangs off the execute span as one
		// "stream-emit" child.
		if ex.span != nil {
			ex.span.Record("stream-emit", sink.emitDur).Add("pairs", int64(sink.streamed))
		}
		s.settleStream(sink, err)
	}
	if err != nil {
		return nil, jp.algo, err
	}
	summary := s.summarize(jp.algo, ex.res)
	// The delta composition is part of the cached content — the key pins the
	// epochs it composed at — unlike the planner report below.
	summary.Delta = ex.delta
	if sink.keep && !p.NoCache && sink.runs.n <= s.cache.MaxPairs() {
		// Cache without the planner report: hits splice in their own request
		// context. The entry takes the chunks; a collecting caller reads them
		// there.
		res := &CachedJoin{runs: sink.runs.seal(), Summary: summary}
		if sink.collect {
			sink.runs = res.runs
		}
		s.cache.Put(ex.key, res)
	}
	summary.Planner = jp.plan
	// The kernel wall (delta sub-joins included; modeled I/O and a partition
	// build left out) is what the wall table prices the engine by. A cache
	// hit replays another join's measurement and feeds it nothing.
	s.walls.Observe(a, b, p.Distance, jp.algo, summary.JoinWallMS)
	return &JoinOutcome{Summary: summary}, jp.algo, nil
}

// replay delivers a cached result to a streaming consumer: whole to its
// replayRuns when it has one, else decoded pair by pair into emit.
func (s *Service) replay(ctx context.Context, runs *pairRuns, sink *collector) error {
	_, span := obs.Start(ctx, "replay")
	var err error
	if sink.replayRuns != nil {
		var n int
		n, err = sink.replayRuns(runs)
		sink.streamed, sink.failed = uint64(n), err != nil
	} else {
		err = runs.each(sink.emit)
	}
	span.End()
	span.Add("pairs", int64(sink.streamed))
	s.settleStream(sink, err)
	return err
}
