package planner

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"repro/internal/datagen"
	"repro/internal/engine"
)

// small are two datasets under the in-memory cap, so both engines can be
// chosen.
var small = DatasetStats{Count: 10_000}

// TestPlanAppliesCorrection: a Config.Correct price is the engine's score and
// ranks the decision; a price that is not positive and finite reads as
// unmeasured, which ranks first.
func TestPlanAppliesCorrection(t *testing.T) {
	d := Plan(small, small, Config{Correct: prices(5, 20)})
	if d.Engine != engine.Transformers || scoreOf(t, d, engine.Transformers) != 5 || scoreOf(t, d, engine.InMem) != 20 {
		t.Fatalf("measured 5 vs 20 ms: %+v", d)
	}
	for _, s := range d.Scores {
		if s.Reason != "measured kernel wall" {
			t.Errorf("%s: reason %q does not say the price was measured", s.Engine, s.Reason)
		}
	}
	for _, bad := range []float64{0, -1, math.Inf(1), math.NaN()} {
		d := Plan(small, small, Config{Correct: prices(5, bad)})
		if d.Engine != engine.InMem || scoreOf(t, d, engine.InMem) != 0 {
			t.Errorf("inmem price %v: chose %q, want inmem unmeasured at 0\nscores: %+v", bad, d.Engine, d.Scores)
		}
	}
}

// explore plans n joins on one pair through a wall table, feeding each
// chosen engine's wall from walls(engine, run of that engine), and returns
// the engines chosen.
func explore(n int, walls func(name string, run int) float64) []string {
	c := NewCorrector()
	runs := make(map[string]int)
	var chosen []string
	for i := 0; i < n; i++ {
		e := Plan(small, small, Config{Correct: c.Bind("a", "b")}).Engine
		c.Observe("a", "b", 0, e, walls(e, runs[e]))
		runs[e]++
		chosen = append(chosen, e)
	}
	return chosen
}

// TestPlanColdOrder: a cold pair runs TRANSFORMERS twice, then inmem twice,
// then whichever measured cheaper — either way round.
func TestPlanColdOrder(t *testing.T) {
	tr, im := engine.Transformers, engine.InMem
	for _, tc := range []struct {
		wallTr, wallIm float64
		then           string
	}{{23.5, 8.7, im}, {18, 45, tr}} {
		got := explore(8, func(name string, _ int) float64 {
			if name == im {
				return tc.wallIm
			}
			return tc.wallTr
		})
		want := []string{tr, tr, im, im, tc.then, tc.then, tc.then, tc.then}
		if !slices.Equal(got, want) {
			t.Errorf("transformers %v ms, inmem %v ms: ran %v, want %v", tc.wallTr, tc.wallIm, got, want)
		}
	}
}

// TestFirstSampleInflatedSettles: the first join of an engine on a pair runs
// on cold caches. With the faster engine's first wall, or every engine's,
// twice its steady wall, the pair still settles on the faster engine after
// exploring, at the walls measured on the benchmark's selective (inmem 8.7
// vs transformers 23.5 ms) and stream-heavy (transformers 18 vs inmem 45 ms)
// workloads.
func TestFirstSampleInflatedSettles(t *testing.T) {
	for _, tc := range []struct {
		workload       string
		wallTr, wallIm float64
		faster         string
	}{
		{"selective", 23.5, 8.7, engine.InMem},
		{"stream-heavy", 18, 45, engine.Transformers},
	} {
		for _, all := range []bool{false, true} {
			got := explore(40, func(name string, run int) float64 {
				w := tc.wallTr
				if name == engine.InMem {
					w = tc.wallIm
				}
				if run == 0 && (all || name == tc.faster) {
					w *= 2
				}
				return w
			})
			for i, e := range got[4:] {
				if e != tc.faster {
					t.Errorf("%s (every first wall inflated: %v): join %d ran %s, want %s; all: %v", tc.workload, all, i+5, e, tc.faster, got)
					break
				}
			}
		}
	}
}

// TestCorrectorConverges pins joins-to-converge: after a pair's wall moves
// from 10 ms to 10·level, the price is the new wall at the first join when
// it fell and at the fifth when it rose — four slow joins in a row do not
// move it — and likewise when it moves back.
func TestCorrectorConverges(t *testing.T) {
	for _, level := range []float64{0.3, 0.5, 2, 3, 4} {
		c := NewCorrector()
		walls := func(ms float64, from, to float64) {
			t.Helper()
			for i := 1; i <= wallWindow; i++ {
				c.Observe("a", "b", 0, engine.InMem, ms)
				want := from
				if to < from || i == wallWindow {
					want = to
				}
				if p := c.Price("a", "b", 0, engine.InMem); p != want {
					t.Fatalf("level %v: after %d walls of %v ms the price is %v, want %v", level, i, ms, p, want)
				}
			}
		}
		c.Observe("a", "b", 0, engine.InMem, 10)
		walls(10, 10, 10)
		walls(10*level, 10, 10*level)
		walls(10, 10*level, 10)
	}
}

// TestCorrectorSingleOutlierNeverFlips: the price is the least of five
// walls, so slow walls of any size leave it where it was — at
// stream-heavy's measured walls (transformers 18, inmem 45 ms) no outlier
// flips the choice.
func TestCorrectorSingleOutlierNeverFlips(t *testing.T) {
	for _, k := range []float64{2, 17, 1e6} {
		c := NewCorrector()
		for i := 0; i < wallWindow; i++ {
			c.Observe("a", "b", 0, engine.Transformers, 18)
		}
		c.Observe("a", "b", 0, engine.InMem, 45)
		c.Observe("a", "b", 0, engine.InMem, 45)
		for i := 0; i < wallWindow-1; i++ {
			c.Observe("a", "b", 0, engine.Transformers, 18*k)
			d := Plan(small, small, Config{Correct: c.Bind("a", "b")})
			if d.Engine != engine.Transformers || scoreOf(t, d, engine.Transformers) != 18 || scoreOf(t, d, engine.InMem) != 45 {
				t.Errorf("%d transformers walls %vx its price: %+v", i+1, k, d)
			}
		}
	}
}

// TestLoserRemeasured: the engine not chosen is not measured, so its price
// dates from the load it was measured under. Every wallRefresh-th wall of
// the chosen engine restarts it, "auto" measures it twice beside the chosen
// one, and the fresh prices decide: back to the engine that is still
// faster, or over to the one that now is — here after a busy spell priced
// transformers at 80 ms and left it chosen over an inmem now at 30.
func TestLoserRemeasured(t *testing.T) {
	for _, tc := range []struct {
		im   float64 // inmem's wall now
		then string
	}{{100, engine.Transformers}, {30, engine.InMem}} {
		c := NewCorrector()
		c.Observe("a", "b", 0, engine.Transformers, 80)
		c.Observe("a", "b", 0, engine.Transformers, 80)
		c.Observe("a", "b", 0, engine.InMem, 90)
		c.Observe("a", "b", 0, engine.InMem, 90)
		plan := func() string { return Plan(small, small, Config{Correct: c.Bind("a", "b")}).Engine }
		var ran []string
		for i := 0; i < wallRefresh; i++ {
			e := plan()
			ran = append(ran, e)
			w := 80.0
			if e == engine.InMem {
				w = tc.im
			}
			c.Observe("a", "b", 0, e, w)
		}
		if n := slices.Index(ran, engine.InMem); n != wallRefresh-2 || ran[wallRefresh-1] != engine.InMem {
			t.Errorf("inmem now at %v ms: re-measured at joins %d.., want %d and %d", tc.im, n+1, wallRefresh-1, wallRefresh)
		}
		if p := c.Price("a", "b", 0, engine.InMem); p != tc.im {
			t.Errorf("inmem now at %v ms: priced %v after re-measuring", tc.im, p)
		}
		if e := plan(); e != tc.then {
			t.Errorf("inmem now at %v ms: then chose %s, want %s", tc.im, e, tc.then)
		}
	}
}

// TestCorrectorBounds: walls that are not positive and finite, or name no
// engine, create no series; a series prices 0 until its second wall; a nil
// table is inert; the snapshot is sorted.
func TestCorrectorBounds(t *testing.T) {
	c := NewCorrector()
	for _, w := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		c.Observe("a", "b", 0, "x", w)
	}
	c.Observe("a", "b", 0, "", 5)
	if c.Len() != 0 {
		t.Fatalf("degenerate walls created %d series", c.Len())
	}
	c.Observe("a", "b", 5, "y", 4)
	c.Observe("a", "b", 0, "y", 3)
	if p := c.Price("a", "b", 0, "y"); p != 0 {
		t.Errorf("one wall priced %v, want 0 (unmeasured)", p)
	}
	c.Observe("a", "b", 0, "y", 5)
	c.Observe("a", "b", 0, "x", 2)
	c.Observe("a", "b", 0, "x", 2)
	if p := c.Price("a", "b", 0, "y"); p != 3 {
		t.Errorf("walls 3 and 5 priced %v, want the least, 3", p)
	}
	want := []Wall{
		{A: "a", B: "b", Engine: "x", MS: 2, Samples: 2},
		{A: "a", B: "b", Engine: "y", MS: 3, Samples: 2},
		{A: "a", B: "b", Distance: 5, Engine: "y", Samples: 1},
	}
	if got := c.Snapshot(); !slices.Equal(got, want) {
		t.Errorf("snapshot %+v, want %+v", got, want)
	}

	var nilC *Corrector
	nilC.Observe("a", "b", 0, "x", 2)
	if nilC.Price("a", "b", 0, "x") != 0 || nilC.Len() != 0 || nilC.Snapshot() != nil || nilC.Bind("a", "b") != nil {
		t.Error("nil table must be inert")
	}
}

// TestCorrectorConcurrent: joins observe and plans price one table from
// many goroutines at once; every wall is counted. Each engine has a pair of
// its own, so no wall restarts another's series.
func TestCorrectorConcurrent(t *testing.T) {
	c := NewCorrector()
	const workers, walls = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			e := Engines()[w%2]
			for i := 0; i < walls; i++ {
				c.Observe("a", e, 0, e, 10)
				Plan(small, small, Config{Correct: c.Bind("a", e)})
				c.Snapshot()
			}
		}(w)
	}
	wg.Wait()
	if n := c.Len(); n != 2 {
		t.Fatalf("%d series, want one per engine", n)
	}
	for _, w := range c.Snapshot() {
		if w.Samples != workers/2*walls || w.MS != 10 {
			t.Errorf("%s: %d walls at %v ms, want %d at 10", w.Engine, w.Samples, w.MS, workers/2*walls)
		}
	}
}

// TestCorrectorKeyBound: past the key cap, new series are dropped (flat
// memory) while existing series keep updating.
func TestCorrectorKeyBound(t *testing.T) {
	c := NewCorrector()
	for i := 0; i < wallMaxSeries+100; i++ {
		c.Observe("a", fmt.Sprint(i), 0, "x", 2)
	}
	if c.Len() != wallMaxSeries {
		t.Errorf("tracked %d series, cap %d", c.Len(), wallMaxSeries)
	}
	c.Observe("a", "0", 0, "x", 1) // first key again: still updating
	if p := c.Price("a", "0", 0, "x"); p != 1 {
		t.Errorf("existing series stopped updating at the cap: price %v, want 1", p)
	}
}

// TestExpandStats: zero/degenerate distances are identity; positive
// distances grow the MBB by the expansion and keep the rest.
func TestExpandStats(t *testing.T) {
	st := Analyze(datagen.DenseCluster(datagen.Config{N: 30000, Seed: 7}))
	for _, d := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if got := ExpandStats(st, d); got != st {
			t.Errorf("distance %v must be identity", d)
		}
	}
	for _, d := range []float64{1, 10, 50, 200} {
		ex := ExpandStats(st, d)
		for dim := 0; dim < 3; dim++ {
			if ex.MBB.Side(dim) < st.MBB.Side(dim)+d*0.99 {
				t.Errorf("d=%v: MBB side %d did not grow by the expansion", d, dim)
			}
		}
		ex.MBB = st.MBB
		if ex != st {
			t.Errorf("d=%v: expansion changed more than the MBB: %+v", d, ex)
		}
	}
	if empty := ExpandStats(DatasetStats{}, 10); empty.Count != 0 {
		t.Error("empty stats must stay empty")
	}
}

// TestExpandedPlanFlips: a distance join is priced by the walls measured at
// its distance, so one pair can choose inmem for its intersection join and
// TRANSFORMERS for its distance join.
func TestExpandedPlanFlips(t *testing.T) {
	c := NewCorrector()
	for i := 0; i < 2; i++ {
		c.Observe("a", "b", 0, engine.Transformers, 20)
		c.Observe("a", "b", 0, engine.InMem, 8)
		c.Observe("a", "b", 100, engine.Transformers, 60)
		c.Observe("a", "b", 100, engine.InMem, 150)
	}
	at := func(d float64) string {
		return Plan(small, small, Config{Correct: func(e string) float64 { return c.Price("a", "b", d, e) }}).Engine
	}
	if e0, e100 := at(0), at(100); e0 != engine.InMem || e100 != engine.Transformers {
		t.Errorf("chose %s at distance 0 and %s at 100, want inmem and transformers", e0, e100)
	}
}

// TestPlanCustomCandidateSetNoSilentFallback: Plan's candidate set is
// Engines, and the cheaper one is chosen outright: inmem measured 10% under
// TRANSFORMERS wins, with no margin held back for the robust default.
func TestPlanCustomCandidateSetNoSilentFallback(t *testing.T) {
	d := Plan(small, small, Config{Correct: prices(20, 18)})
	if d.Engine != engine.InMem || d.Scores[0].Engine != engine.InMem || len(d.Scores) != len(Engines()) {
		t.Errorf("inmem 10%% under transformers: chose %q\nscores: %+v", d.Engine, d.Scores)
	}
}
