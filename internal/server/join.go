package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/transformers"
)

// JoinParams selects a join execution.
type JoinParams struct {
	// Distance > 0 runs the distance join of §VIII: pairs whose boxes come
	// within the given Chebyshev distance. 0 is the plain intersection join.
	Distance float64
	// Parallelism overrides the per-join worker count (service default when
	// zero, all cores when negative).
	Parallelism int
	// NoCache bypasses the result cache (both lookup and fill).
	NoCache bool
	// Algorithm names the engine to run: a ServedEngines entry,
	// AlgorithmAuto to let the planner pick, or empty for the service
	// default.
	Algorithm string
}

// JoinOutcome is one join result: pairs in A/B orientation, the cost
// summary, and whether the cache served it.
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

// predicateOf names a join's predicate in cache keys, join records and
// planner samples.
func predicateOf(distance float64) string {
	if distance > 0 {
		return "distance"
	}
	return "intersects"
}

// admitted runs fn inside one pool slot, bracketing the queue wait with an
// "admission-wait" span (queue depth and slot cost at arrival) and the slot
// time with a top-level "execute" span whose context fn receives, so engine
// and catalog spans nest under it. The execute span is returned (nil when
// untraced or never admitted) so a streamed join can attach its emit record
// to it after the fact.
func (s *Service) admitted(ctx context.Context, cost int, fn func(ctx context.Context) error) (*obs.Span, error) {
	_, wait := obs.Start(ctx, "admission-wait")
	if wait != nil {
		wait.Add("queue_depth", int64(s.pool.QueueDepth()))
		wait.Add("cost_units", int64(cost))
	}
	var exec *obs.Span
	err := s.pool.Do(ctx, admission(ctx, cost), func() error {
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
	// part is the (already released) partition an inmem join ran on; nil for
	// every other engine. Forget it when the result was stored.
	part *PartitionHandle
}

// executeJoin runs the planned join inside one pool slot, so admission
// control bounds all expensive work — including the single-flight partition
// build an inmem acquisition can trigger. Waiting on another request's
// in-flight partition build consumes this slot, for no longer than the
// request's own deadline, and never needs a second one, so slots cannot
// deadlock. There is one branch per served engine (planJoin admits no other),
// each reading what the catalog holds. Every pair, of both branches and of the
// delta sub-joins, leaves through emit.
func (s *Service) executeJoin(ctx context.Context, a, b string, p JoinParams, jp joinPlan, emit engine.EmitFunc) (execution, error) {
	var ex execution
	var run func(ctx context.Context) error
	switch jp.algo {
	case engine.Transformers:
		// Catalog path: reuse the prebuilt indexes (for distance joins, their
		// grown views) through the registry's prebuilt option. A non-empty
		// delta buffer composes on top: the prebuilt indexes cover
		// base×base, and the delta sub-joins run inmem afterwards against
		// the same generation — the handles fix which (base, delta)
		// snapshot this join describes even if a merge installs a successor
		// generation mid-join.
		run = func(ctx context.Context) error {
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
			baseA, deltaA, epochA := s.cat.DeltaView(ha)
			baseB, deltaB, epochB := s.cat.DeltaView(hb)
			ex.key = joinKey(a, b, ha.Version, hb.Version, epochA, epochB, p.Distance, jp.algo)
			ex.res, err = engine.RunStream(ctx, jp.algo, nil, nil, engine.Options{
				Parallelism: jp.parallelism,
				Concurrent:  true,
				PageSize:    s.cfg.PageSize,
				Prebuilt:    &engine.Prebuilt{A: ha.Index.Core(), B: hb.Index.Core()},
			}, emit)
			if err == nil && len(deltaA)+len(deltaB) > 0 {
				ex.delta, err = s.deltaJoin(ctx, ex.res, baseA, baseB, deltaA, deltaB, p, jp, emit)
			}
			return err
		}
	case engine.InMem:
		// Catalog path of the in-memory engine: its index is the stripe
		// partition of the dataset pair, built by the first join of the
		// pair's current state and reused until a write. The partition
		// covers base + delta with the distance expansion applied, so only
		// the kernel runs here — no composition, no Options.Distance.
		run = func(ctx context.Context) error {
			pctx, span := obs.Start(ctx, "partition")
			h, err := s.cat.AcquirePartition(pctx, a, b, p.Distance)
			span.End()
			if err != nil {
				return err
			}
			defer h.Release()
			ex.part = h
			if span != nil {
				hit := int64(0)
				if h.Hit {
					hit = 1
				}
				span.Add("hit", hit)
				span.Add("bytes", int64(h.Partition.Bytes()))
				span.Add("stripes", int64(h.Partition.Stripes()))
			}
			ex.key = joinKey(a, b, h.VersionA, h.VersionB, h.EpochA, h.EpochB, p.Distance, jp.algo)
			ex.res, err = engine.RunStream(ctx, jp.algo, nil, nil, engine.Options{
				Parallelism: jp.parallelism,
				PageSize:    s.cfg.PageSize,
				Prebuilt:    &engine.Prebuilt{Partition: h.Partition},
			}, emit)
			if err != nil {
				return err
			}
			// The build this request paid: the partition's, or none.
			ex.res.Stats.BuildWall += h.Build
			ex.res.Stats.BuildTotal += h.Build
			if h.DeltaA+h.DeltaB > 0 {
				ex.delta = &DeltaSummary{ElementsA: h.DeltaA, ElementsB: h.DeltaB}
				s.deltaJoins.Add(1)
			}
			return nil
		}
	}
	var err error
	ex.span, err = s.admitted(ctx, jp.cost, run)
	if err != nil {
		s.noteOutcome(ctx, err)
	}
	return ex, err
}

// storeResult caches an executed join's result and settles its partition: a
// partition is retained exactly when its result is not, because a stored
// result answers every repeat until the next write makes both unreachable.
func (s *Service) storeResult(ex execution, res *CachedJoin) {
	if s.cache.Put(ex.key, res) {
		ex.part.Forget()
	}
}

// deltaJoin composes the append-delta sub-joins of one prebuilt-path join:
// base×delta, delta×base and delta×delta run through the inmem engine on the
// pinned generation's snapshot, into the same emit as the base join — so
// buffering and delivery apply to delta pairs exactly as to base pairs. The
// three sub-joins partition the non-base×base pairs of
// (baseA ∪ deltaA)×(baseB ∪ deltaB), so the composed result is multiset-equal
// to a full rebuild by construction; empty sides are skipped. Distance joins
// pass Options.Distance so the inmem engine expands the delta inputs exactly
// as the catalog pre-expanded the base indexes.
func (s *Service) deltaJoin(ctx context.Context, res *engine.Result, baseA, baseB, deltaA, deltaB []transformers.Element, p JoinParams, jp joinPlan, emit engine.EmitFunc) (*DeltaSummary, error) {
	dctx, span := obs.Start(ctx, "delta-join")
	sum := &DeltaSummary{ElementsA: len(deltaA), ElementsB: len(deltaB)}
	opt := engine.Options{
		Distance:    p.Distance,
		Parallelism: jp.parallelism,
		PageSize:    s.cfg.PageSize,
	}
	var pairs uint64
	for _, sj := range [3]struct{ ea, eb []transformers.Element }{
		{baseA, deltaB},
		{deltaA, baseB},
		{deltaA, deltaB},
	} {
		if len(sj.ea) == 0 || len(sj.eb) == 0 {
			continue
		}
		sub, err := engine.RunStream(dctx, engine.InMem, sj.ea, sj.eb, opt, emit)
		if err != nil {
			span.End()
			return nil, err
		}
		mergeDeltaStats(&res.Stats, sub.Stats)
		pairs += sub.Stats.Refinements
		sum.SubJoins++
	}
	span.End()
	span.Add("delta_a", int64(len(deltaA)))
	span.Add("delta_b", int64(len(deltaB)))
	span.Add("sub_joins", int64(sum.SubJoins))
	span.Add("pairs", int64(pairs))
	sum.Pairs = pairs
	s.deltaJoins.Add(1)
	return sum, nil
}

// mergeDeltaStats folds one delta sub-join's cost into the composed result's
// stats, so the summary (and the planner accuracy sample derived from it)
// prices the work that actually ran, not just the base join.
func mergeDeltaStats(dst *engine.Stats, sub engine.Stats) {
	dst.BuildWall += sub.BuildWall
	dst.BuildIOTime += sub.BuildIOTime
	dst.BuildTotal += sub.BuildTotal
	dst.IndexedPages += sub.IndexedPages
	dst.JoinWall += sub.JoinWall
	dst.JoinIOTime += sub.JoinIOTime
	dst.JoinTotal += sub.JoinTotal
	dst.PagesRead += sub.PagesRead
	dst.Candidates += sub.Candidates
	dst.MetaComparisons += sub.MetaComparisons
	dst.Refinements += sub.Refinements
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
// order. The returned pair slice may be shared with the cache — callers must
// not mutate it.
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
// replays the cached pairs; a miss hands emit the engine's pairs as they
// surface, so server-side pair buffering is bounded by the engine's worker
// budget plus the cache fill (see collector). An emit error (a slow consumer
// gone away, the request context canceled) aborts the underlying join and is
// returned. The returned outcome carries the summary with Pairs nil.
func (s *Service) JoinStream(ctx context.Context, a, b string, p JoinParams, emit func(transformers.Pair) error) (*JoinOutcome, error) {
	sink := &collector{consumer: emit}
	defer sink.release()
	out, _, err := s.join(ctx, a, b, p, sink)
	return out, err
}

// pairChunk is the unit the collector buffers in: 4096 pairs, 64 KB. A
// buffered answer is a list of them, so it never regrows — what it allocates
// is its size rounded up to a chunk — and released chunks serve the next
// answer instead of the collector. The pool holds no chunk past two
// collections of an idle daemon.
type pairChunk [pairChunkLen]transformers.Pair

const pairChunkLen = 4096

var pairChunks = sync.Pool{New: func() any { return new(pairChunk) }}

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

	// The buffered pairs: in chunks (all full but the last) as emit gathered
	// them, or — once the cache holds the result, or served it — the cache's
	// own flat slice, which must not be mutated.
	chunks []*pairChunk
	n      int
	shared []transformers.Pair

	keep bool // still buffering
	max  int  // buffer cap; negative = unbounded

	// timed accumulates the time spent inside consumer in emitDur — two clock
	// reads per pair, paid by traced requests only.
	timed    bool
	emitDur  time.Duration
	streamed uint64 // pairs consumer accepted
	failed   bool   // consumer refused one
}

func (c *collector) emit(pr transformers.Pair) error {
	if c.keep {
		if c.max < 0 || c.n < c.max {
			k := c.n % pairChunkLen
			if k == 0 {
				c.chunks = append(c.chunks, pairChunks.Get().(*pairChunk))
			}
			c.chunks[len(c.chunks)-1][k] = pr
			c.n++
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

// each calls yield with the buffered pairs in emit order, a run at a time.
func (c *collector) each(yield func([]transformers.Pair) error) error {
	if c.shared != nil {
		return yield(c.shared)
	}
	left := c.n
	for _, ch := range c.chunks {
		run := ch[:min(left, len(ch))]
		if err := yield(run); err != nil {
			return err
		}
		left -= len(run)
	}
	return nil
}

// len counts the buffered pairs.
func (c *collector) len() int {
	if c.shared != nil {
		return len(c.shared)
	}
	return c.n
}

// pairs returns the buffered pairs as one slice the caller may keep: the
// cache's, or an exact-size copy of the chunks (nil when there are none).
func (c *collector) pairs() []transformers.Pair {
	if c.shared != nil || c.n == 0 {
		return c.shared
	}
	flat := make([]transformers.Pair, 0, c.n)
	_ = c.each(func(run []transformers.Pair) error {
		flat = append(flat, run...)
		return nil
	})
	return flat
}

// release gives the chunks back; the collector then holds no pairs of its
// own. Every caller of join defers it.
func (c *collector) release() {
	for _, ch := range c.chunks {
		pairChunks.Put(ch)
	}
	c.chunks, c.n = nil, 0
}

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
	start := time.Now()
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
				if err := s.replay(ctx, res.Pairs, sink); err != nil {
					return nil, jp.algo, err
				}
			} else if sink.collect {
				sink.shared = res.Pairs // the cached slice itself: no replay, no copy
			}
			s.recordPlannerSample(ctx, p, jp, out.Summary, time.Since(start), true, false)
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
	if sink.keep && !p.NoCache && sink.n <= s.cache.MaxPairs() {
		// Cache without the planner report: hits splice in their own request
		// context. The cache takes the one flat copy; a collecting caller
		// shares it.
		sink.shared = sink.pairs()
		sink.release()
		s.storeResult(ex, &CachedJoin{Pairs: sink.shared, Summary: summary})
	}
	summary.Planner = jp.plan
	s.recordPlannerSample(ctx, p, jp, summary, time.Since(start), false, ex.part != nil && ex.part.Hit)
	return &JoinOutcome{Summary: summary}, jp.algo, nil
}

// replay delivers a cached result to a streaming consumer.
func (s *Service) replay(ctx context.Context, pairs []transformers.Pair, sink *collector) error {
	_, span := obs.Start(ctx, "replay")
	var err error
	for _, pr := range pairs {
		if err = sink.emit(pr); err != nil {
			break
		}
	}
	span.End()
	span.Add("pairs", int64(sink.streamed))
	s.settleStream(sink, err)
	return err
}
