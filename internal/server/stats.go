package server

import (
	"time"

	"repro/internal/storage"
)

// countEngineJoin tallies one executed join per engine for /stats.
func (s *Service) countEngineJoin(name string) {
	s.engineMu.Lock()
	s.engineJoins[name]++
	s.engineMu.Unlock()
}

// Stats is the /stats document.
// Stats marshals deterministically: encoding/json emits Go maps with sorted
// keys, so the engine/tenant maps scrape byte-stably — asserted by test, do
// not replace the maps with types whose marshalling is insertion-ordered.
type Stats struct {
	UptimeMS float64 `json:"uptime_ms"`
	// UptimeS is the whole-second uptime — the stable field for scrapers
	// that want a coarse monotone counter rather than a float.
	UptimeS      int64  `json:"uptime_s"`
	Joins        uint64 `json:"joins"`
	RangeQueries uint64 `json:"range_queries"`
	// Appends counts append requests, AppendedElements the elements they
	// landed; DeltaJoins counts executed joins that composed a non-empty
	// delta (catalog stats carry the merge counters).
	Appends          uint64 `json:"appends"`
	AppendedElements uint64 `json:"appended_elements"`
	DeltaJoins       uint64 `json:"delta_joins"`
	// AutoJoins counts joins that went through the planner; EngineJoins
	// counts executed (non-cached) joins per engine.
	AutoJoins   uint64            `json:"auto_joins"`
	EngineJoins map[string]uint64 `json:"engine_joins"`
	// StreamedPairs counts pairs delivered to streaming consumers (cache
	// replays included); AbortedStreams counts streaming joins that ended
	// early — consumer write failure or mid-stream disconnect.
	StreamedPairs  uint64 `json:"streamed_pairs"`
	AbortedStreams uint64 `json:"aborted_streams"`
	// Algorithms lists the engines a join may name, plus "auto";
	// DefaultAlgorithm is what an unnamed request gets.
	Algorithms       []string      `json:"algorithms"`
	DefaultAlgorithm string        `json:"default_algorithm"`
	Catalog          CatalogStats  `json:"catalog"`
	Cache            CacheStats    `json:"cache"`
	Pool             PoolStats     `json:"pool"`
	Datasets         []DatasetInfo `json:"datasets"`
	PageSize         int           `json:"page_size"`
	// Tenants merges pool admission counters with the service's
	// resilience counters, per tenant.
	Tenants map[string]TenantStats `json:"tenants,omitempty"`
}

// TenantStats is one tenant's /stats document.
type TenantStats struct {
	Admitted       uint64 `json:"admitted"`
	Queued         int    `json:"queued"`
	Shed           uint64 `json:"shed"`
	DeadlineAborts uint64 `json:"deadline_aborts"`
}

// Stats returns a snapshot of service activity.
func (s *Service) Stats() Stats {
	pageSize := s.cfg.PageSize
	if pageSize <= 0 {
		pageSize = storage.DefaultPageSize
	}
	s.engineMu.Lock()
	engineJoins := make(map[string]uint64, len(s.engineJoins))
	for k, v := range s.engineJoins {
		engineJoins[k] = v
	}
	s.engineMu.Unlock()

	pool := s.pool.Stats()
	tenants := make(map[string]TenantStats, len(pool.Tenants))
	for name, tp := range pool.Tenants {
		tenants[name] = TenantStats{Admitted: tp.Admitted, Queued: tp.Queued, Shed: tp.Shed}
	}
	s.tenantMu.Lock()
	for name, tc := range s.tenants {
		ts := tenants[name]
		ts.DeadlineAborts = tc.deadlineAborts
		tenants[name] = ts
	}
	s.tenantMu.Unlock()
	if len(tenants) == 0 {
		tenants = nil
	}
	return Stats{
		UptimeMS:         float64(time.Since(s.start)) / float64(time.Millisecond),
		UptimeS:          int64(time.Since(s.start) / time.Second),
		Joins:            s.joins.Load(),
		RangeQueries:     s.rangeQueries.Load(),
		Appends:          s.appends.Load(),
		AppendedElements: s.appendedElements.Load(),
		DeltaJoins:       s.deltaJoins.Load(),
		AutoJoins:        s.autoJoins.Load(),
		EngineJoins:      engineJoins,
		StreamedPairs:    s.streamedPairs.Load(),
		AbortedStreams:   s.abortedStreams.Load(),
		Algorithms:       append(ServedEngines(), AlgorithmAuto),
		DefaultAlgorithm: s.cfg.DefaultAlgorithm,
		Catalog:          s.cat.Stats(),
		Cache:            s.cache.Stats(),
		Pool:             pool,
		Datasets:         s.cat.Datasets(),
		PageSize:         pageSize,
		Tenants:          tenants,
	}
}

// Health is the /healthz document: ok, or degraded with the reasons — a
// tenant queue actively shedding, or a dataset whose delta merge is failing.
type Health struct {
	Status  string   `json:"status"`
	Reasons []string `json:"reasons,omitempty"`
}

// Health reports serving health for /healthz.
func (s *Service) Health() Health {
	reasons := append(s.pool.Shedding(s.cfg.ShedWindow), s.cat.Degraded()...)
	if len(reasons) == 0 {
		return Health{Status: "ok"}
	}
	return Health{Status: "degraded", Reasons: reasons}
}
