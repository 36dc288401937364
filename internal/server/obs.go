package server

import (
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/engine/planner"
	"repro/internal/obs"
)

// Observability defaults.
const (
	// DefaultSlowJoinThreshold is the wall-time bound above which a join is
	// recorded (with its full span tree) in the /debug/joins ring.
	DefaultSlowJoinThreshold = 500 * time.Millisecond
	// DefaultDebugJoins is the slow-join ring capacity.
	DefaultDebugJoins = 128
	// DefaultPlannerSamples is the planner accuracy ring capacity.
	DefaultPlannerSamples = 1024
)

// serviceObs bundles the service's observability state: the metrics registry
// with its event-time histograms, the slow-join ring behind /debug/joins, and
// the planner accuracy recorder behind /debug/planner. Always non-nil on a
// Service — recording costs a few atomic reads when nothing scrapes.
type serviceObs struct {
	reg        *obs.Registry
	joinHist   *obs.Histogram // per-engine join latency, seconds
	buildHist  *obs.Histogram // catalog index build latency, seconds
	decodeHist *obs.Histogram // upload/append body read+decode latency, seconds
	ring       *obs.JoinRing
	recorder   *obs.PlannerRecorder
	slow       time.Duration // joins slower than this land in the ring; <0 = all
}

// newServiceObs assembles the observability state and registers the
// collector-backed metric families over the service's existing counters.
func newServiceObs(s *Service, cfg Config) *serviceObs {
	slow := cfg.SlowJoinThreshold
	if slow == 0 {
		slow = DefaultSlowJoinThreshold
	}
	o := &serviceObs{
		reg:  obs.NewRegistry(),
		ring: obs.NewJoinRing(DefaultDebugJoins),
		// Every executed (non-cached) sample gives the wall table its
		// engine's kernel wall on that pair and distance.
		recorder: obs.NewPlannerRecorder(DefaultPlannerSamples, func(ps obs.PlannerSample) {
			if !ps.CacheHit {
				s.walls.Observe(ps.A.Name, ps.B.Name, ps.Distance, ps.Engine, ps.MeasuredMS)
			}
		}),
		slow: slow,
	}
	r := o.reg
	o.joinHist = r.Histogram("spatialjoin_join_duration_seconds",
		"End-to-end join latency by engine, cache hits included.", "engine", nil)
	o.buildHist = r.Histogram("spatialjoin_build_duration_seconds",
		"Catalog index build latency by outcome (ok/error).", "outcome", nil)
	o.decodeHist = r.Histogram("spatialjoin_ingest_decode_seconds",
		"Upload and append body read+decode latency by outcome (ok/error): the half of ingest before the build.", "outcome", nil)

	// counter registers a single-series monotone count: a _total family must
	// say "# TYPE … counter", or rate() over it is flagged.
	counter := func(name, help string, fn func() float64) {
		r.Func(name, help, "counter", func() []obs.Sample { return []obs.Sample{{V: fn()}} })
	}

	r.GaugeFunc("spatialjoin_uptime_seconds", "Seconds since service start.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.GaugeFunc("spatialjoin_pool_queue_depth", "Requests waiting for pool admission.",
		func() float64 { return float64(s.pool.QueueDepth()) })
	r.GaugeFunc("spatialjoin_pool_slot_utilization", "Executing slot units / pool capacity.",
		func() float64 {
			ps := s.pool.Stats()
			if ps.Workers <= 0 {
				return 0
			}
			return float64(ps.Active) / float64(ps.Workers)
		})
	r.Func("spatialjoin_tenant_admitted_total", "Pool admissions by tenant.", "counter",
		func() []obs.Sample {
			return tenantSamples(s, func(t TenantStats) float64 { return float64(t.Admitted) })
		})
	r.Func("spatialjoin_tenant_shed_total", "Requests shed by tenant admission control.", "counter",
		func() []obs.Sample { return tenantSamples(s, func(t TenantStats) float64 { return float64(t.Shed) }) })
	r.GaugeFunc("spatialjoin_join_cache_hit_ratio", "Join-result cache hits / lookups.",
		func() float64 {
			cs := s.cache.Stats()
			if total := cs.Hits + cs.Misses; total > 0 {
				return float64(cs.Hits) / float64(total)
			}
			return 0
		})
	r.GaugeFunc("spatialjoin_join_cache_bytes", "Encoded join answers the result cache holds.",
		func() float64 { return float64(s.cache.Stats().Bytes) })
	r.GaugeFunc("spatialjoin_index_cache_hit_ratio", "Catalog acquisitions that started no build: a dataset's one index at any distance, or a resident pair partition.",
		func() float64 {
			cs := s.cat.Stats()
			if cs.Acquires > 0 {
				return float64(cs.IndexHits) / float64(cs.Acquires)
			}
			return 0
		})
	r.GaugeFunc("spatialjoin_partitions", "Resident inmem pair partitions (they share the index cap).",
		func() float64 { return float64(s.cat.Stats().Partitions) })
	r.GaugeFunc("spatialjoin_partition_bytes", "Heap held by resident inmem pair partitions.",
		func() float64 { return float64(s.cat.Stats().PartitionBytes) })
	r.Func("spatialjoin_engine_joins_total", "Executed (non-cached) joins by engine.", "counter",
		func() []obs.Sample {
			s.engineMu.Lock()
			out := make([]obs.Sample, 0, len(s.engineJoins))
			for name, n := range s.engineJoins {
				out = append(out, obs.Sample{Label: "engine", LabelValue: name, V: float64(n)})
			}
			s.engineMu.Unlock()
			return out
		})
	counter("spatialjoin_joins_total", "Join requests accepted for planning.",
		func() float64 { return float64(s.joins.Load()) })
	counter("spatialjoin_streamed_pairs_total", "Pairs delivered to streaming consumers.",
		func() float64 { return float64(s.streamedPairs.Load()) })
	counter("spatialjoin_aborted_streams_total", "Streaming joins ended early by the consumer.",
		func() float64 { return float64(s.abortedStreams.Load()) })
	counter("spatialjoin_slow_joins_total", "Joins recorded in the /debug/joins ring.",
		func() float64 { return float64(o.ring.Total()) })
	r.GaugeFunc("spatialjoin_delta_elements", "Elements buffered in dataset delta buffers awaiting merge.",
		func() float64 { return float64(s.cat.Stats().DeltaElements) })
	counter("spatialjoin_delta_merges_total", "Completed background delta merges.",
		func() float64 { return float64(s.cat.Stats().Merges) })
	r.GaugeFunc("spatialjoin_planner_wall_series", "Tracked (dataset pair, distance, engine) series of the planner's wall table.",
		func() float64 { return float64(s.walls.Len()) })
	r.GaugeFunc("go_goroutines", "Current goroutine count.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	r.GaugeFunc("go_heap_alloc_bytes", "Live heap allocation.",
		func() float64 {
			// MemStats.HeapAlloc, read without ReadMemStats stopping the
			// world on every scrape.
			heap := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
			metrics.Read(heap)
			return float64(heap[0].Value.Uint64())
		})
	return o
}

// tenantSamples projects one per-tenant counter out of the merged tenant
// stats (map iteration order is irrelevant: the registry sorts label values).
func tenantSamples(s *Service, f func(TenantStats) float64) []obs.Sample {
	tenants := s.Stats().Tenants
	out := make([]obs.Sample, 0, len(tenants))
	for name, t := range tenants {
		out = append(out, obs.Sample{Label: "tenant", LabelValue: name, V: f(t)})
	}
	return out
}

// Metrics exposes the service's metric registry (the /metrics handler).
func (s *Service) Metrics() *obs.Registry { return s.obs.reg }

// SlowJoins exposes the slow-join ring (the /debug/joins handler).
func (s *Service) SlowJoins() *obs.JoinRing { return s.obs.ring }

// PlannerRecorder exposes the planner accuracy recorder (/debug/planner).
func (s *Service) PlannerRecorder() *obs.PlannerRecorder { return s.obs.recorder }

// PlannerWalls snapshots the wall table's per-(dataset pair, distance,
// engine) series, sorted (/debug/planner).
func (s *Service) PlannerWalls() []planner.Wall { return s.walls.Snapshot() }

// SlowJoinThreshold reports the resolved slow-join ring threshold.
func (s *Service) SlowJoinThreshold() time.Duration { return s.obs.slow }

// observeJoin feeds one finished join into the metrics layer: the per-engine
// latency histogram (every outcome, cache hits included — its counts are the
// served-join counts the concurrent-traffic test asserts against) and, when
// the join was slow (or the threshold is negative: record everything), the
// slow-join ring with its span tree.
func (s *Service) observeJoin(rec obs.JoinRecord, wall time.Duration) {
	engineLabel := rec.Engine
	if engineLabel == "" {
		engineLabel = "none" // failed before planning resolved an engine
	}
	s.obs.joinHist.Observe(engineLabel, wall.Seconds())
	if s.obs.slow < 0 || wall >= s.obs.slow {
		s.obs.ring.Add(rec)
	}
}
