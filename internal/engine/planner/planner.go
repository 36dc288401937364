package planner

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/engine"
)

// engines are the engines Plan prices, in exploration order: TRANSFORMERS,
// which joins a dataset's catalog index, and inmem, which joins a pair's
// resident partition. They are the engines the daemon serves
// (server.ServedEngines); every other registered engine runs in-process only
// and is never planned.
var engines = []string{engine.Transformers, engine.InMem}

// Engines returns the engines Plan prices.
func Engines() []string { return slices.Clone(engines) }

// Config parameterizes one planning pass.
type Config struct {
	// PrebuiltTransformers and ShardWorkers are ignored: Plan prices measured
	// walls, which need neither. They stay because the benchmark module's
	// planner row sets them.
	PrebuiltTransformers bool
	ShardWorkers         int
	// Correct, when non-nil, returns an engine's price on the pair being
	// planned: its measured kernel wall in ms (Corrector.Price). A price that
	// is not positive and finite marks the engine unmeasured.
	Correct func(engine string) float64
}

// DefaultMaxInMemoryElements is the combined-cardinality cap above which the
// planner stops auto-selecting inmem: its partition holds both inputs with no
// paging, so under concurrent serving traffic large inputs turn into
// unbounded per-request allocations. Above the cap it is still requestable
// explicitly.
const DefaultMaxInMemoryElements = 250_000

// FitsInMemory reports whether both datasets together fit under
// DefaultMaxInMemoryElements.
func FitsInMemory(a, b DatasetStats) bool {
	return a.Count+b.Count <= DefaultMaxInMemoryElements
}

// Score is one engine's price.
type Score struct {
	Engine string `json:"engine"`
	// CostMS is the engine's measured kernel wall on the pair in
	// milliseconds; 0 while it is unmeasured, so it is explored first; and
	// math.Inf for an engine the planner refuses to auto-select.
	CostMS float64 `json:"cost_ms"`
	// Reason says which of the three the price is.
	Reason string `json:"reason"`
}

// MarshalJSON keeps Score wire-safe: encoding/json rejects +Inf, so
// non-selectable engines serialize with cost_ms omitted (the reason field
// explains why they were excluded).
func (s Score) MarshalJSON() ([]byte, error) {
	type dto struct {
		Engine string   `json:"engine"`
		CostMS *float64 `json:"cost_ms,omitempty"`
		Reason string   `json:"reason"`
	}
	d := dto{Engine: s.Engine, Reason: s.Reason}
	if !math.IsInf(s.CostMS, 0) && !math.IsNaN(s.CostMS) {
		d.CostMS = &s.CostMS
	}
	return json.Marshal(d)
}

// Decision is the planner's output: the selected engine and the full ranked
// scoring, so responses and /stats can show why.
type Decision struct {
	Engine string `json:"engine"`
	// Scores is sorted by ascending price.
	Scores []Score `json:"scores"`
}

// Plan prices each engine by what it measured on the pair (cfg.Correct) and
// selects the cheapest. An engine not yet measured prices 0, so a cold pair
// explores TRANSFORMERS, then inmem, before either is chosen on price; inmem
// over the in-memory cap is excluded. The statistics are read for the cap
// alone. The decision is deterministic in the inputs.
func Plan(a, b DatasetStats, cfg Config) Decision {
	scores := make([]Score, 0, len(engines))
	for _, name := range engines {
		s := Score{Engine: name, Reason: "unmeasured on this pair: explored first"}
		if name == engine.InMem && !FitsInMemory(a, b) {
			s.CostMS = math.Inf(1)
			s.Reason = fmt.Sprintf("in-memory engine, |A|+|B|=%d over the %d cap", a.Count+b.Count, DefaultMaxInMemoryElements)
		} else if cfg.Correct != nil {
			if ms := cfg.Correct(name); ms > 0 && !math.IsInf(ms, 0) {
				s.CostMS, s.Reason = ms, "measured kernel wall"
			}
		}
		scores = append(scores, s)
	}
	sort.SliceStable(scores, func(i, j int) bool { return scores[i].CostMS < scores[j].CostMS })
	return Decision{Engine: scores[0].Engine, Scores: scores}
}
