// The wall table: what Plan prices an engine by. Every executed, uncached
// join records its kernel wall under (dataset pair, distance, engine); an
// engine's price is the least of its last five walls there, available from
// the second. Two walls, not one, because the first join of an engine on a
// pair runs on cold caches; the least, because a join is slowed by a
// collection or a busy host and never sped up, so the least wall is the
// engine's own cost and one slow join does not move it. An engine that is
// not chosen is not measured, so its price dates from whatever load it was
// measured under: every wallRefresh-th wall of the chosen engine restarts
// the others, and "auto" measures them afresh beside it. LocationSpark's
// query planner (PAPERS.md) plans from the costs it recorded the same way.

package planner

import (
	"math"
	"slices"
	"sort"
	"sync"
)

const (
	// wallWindow is how many of a series' latest walls its price is the
	// least of.
	wallWindow = 5
	// wallRefresh is how many walls of one engine on a pair restart the
	// other engines' walls there. Re-measuring costs two joins in about
	// wallRefresh on the engine that lost (three under two concurrent
	// clients): stream-heavy ran 4.5–4.8 % of its joins on inmem at 64,
	// 2.4–2.7 % at 128.
	wallRefresh = 128
	// wallMaxSeries bounds the tracked (pair, distance, engine) keys; walls
	// for new keys past the bound are dropped, so those pairs run
	// TRANSFORMERS, the first engine, and the table's memory stays flat.
	wallMaxSeries = 4096
)

// wallKey identifies one series. The pair is ordered as requested — A/B
// orientation changes the guide/walk sides — and the distance is part of it,
// since a distance join joins boxes grown by it.
type wallKey struct {
	a, b     string
	distance float64
	engine   string
}

// wallSeries is one series: its latest walls, a ring, and how many it has
// taken since it last (re)started.
type wallSeries struct {
	walls [wallWindow]float64
	n     int64
}

// price is the least of the series' latest walls; 0 under two.
func (s *wallSeries) price() float64 {
	k := int(min(s.n, wallWindow))
	if k < 2 {
		return 0
	}
	return slices.Min(s.walls[:k])
}

// Corrector is the wall table; the name stays because the benchmark module's
// planner row calls NewCorrector. All methods are safe for concurrent use and
// nil-safe.
type Corrector struct {
	mu sync.Mutex
	m  map[wallKey]*wallSeries
}

// Wall is one tracked series, as /debug/planner lists it. MS is the price,
// 0 until Samples reaches two; Samples counts the walls since the series
// last (re)started.
type Wall struct {
	A        string  `json:"a"`
	B        string  `json:"b"`
	Distance float64 `json:"distance,omitempty"`
	Engine   string  `json:"engine"`
	MS       float64 `json:"wall_ms"`
	Samples  int64   `json:"samples"`
}

// NewCorrector returns an empty wall table.
func NewCorrector() *Corrector {
	return &Corrector{m: make(map[wallKey]*wallSeries)}
}

// Observe records one executed join's kernel wall. A wall that is not
// positive and finite, or has no engine, is ignored. Every wallRefresh-th
// wall of an engine on the pair restarts the other engines' priced series
// there.
func (c *Corrector) Observe(a, b string, distance float64, engine string, wallMS float64) {
	if c == nil || engine == "" || !(wallMS > 0) || math.IsInf(wallMS, 0) {
		return
	}
	key := wallKey{a, b, distance, engine}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.m[key]
	if s == nil {
		if len(c.m) >= wallMaxSeries {
			return
		}
		s = &wallSeries{}
		c.m[key] = s
	}
	s.walls[s.n%wallWindow] = wallMS
	s.n++
	if s.n%wallRefresh != 0 {
		return
	}
	for _, e := range engines {
		if o := c.m[wallKey{a, b, distance, e}]; e != engine && o != nil && o.n >= 2 {
			o.n = 0
		}
	}
}

// Price returns the engine's price on the pair at the distance: 0 until it
// has two walls.
func (c *Corrector) Price(a, b string, distance float64, engine string) float64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.m[wallKey{a, b, distance, engine}]; s != nil {
		return s.price()
	}
	return 0
}

// Bind returns the Config.Correct of an intersection join of a and b. The
// server binds the distance too; Bind stays because the benchmark module's
// planner row calls it. A nil table binds to nil.
func (c *Corrector) Bind(a, b string) func(engine string) float64 {
	if c == nil {
		return nil
	}
	return func(engine string) float64 { return c.Price(a, b, 0, engine) }
}

// Len reports the tracked series count.
func (c *Corrector) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Snapshot returns every tracked series, sorted by pair, distance and
// engine.
func (c *Corrector) Snapshot() []Wall {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	out := make([]Wall, 0, len(c.m))
	for k, s := range c.m {
		out = append(out, Wall{A: k.a, B: k.b, Distance: k.distance, Engine: k.engine, MS: s.price(), Samples: s.n})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.A != y.A {
			return x.A < y.A
		}
		if x.B != y.B {
			return x.B < y.B
		}
		if x.Distance != y.Distance {
			return x.Distance < y.Distance
		}
		return x.Engine < y.Engine
	})
	return out
}

// ExpandStats returns st with its MBB grown by a distance join's expansion,
// distance/2 per side (geom.ExpandedForDistance). Count, which the in-memory
// cap reads, is unchanged, and so are the distribution signals: nothing
// prices them. d <= 0 (or empty stats) returns st unchanged. ExpandStats
// stays because the benchmark module's planner row calls it.
func ExpandStats(st DatasetStats, distance float64) DatasetStats {
	if distance <= 0 || st.Count == 0 || math.IsInf(distance, 0) || math.IsNaN(distance) {
		return st
	}
	st.MBB = st.MBB.Expand(distance / 2)
	return st
}
