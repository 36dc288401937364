// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation (§VII). Each experiment builds its scaled
// workload, runs the competing algorithms through the engine registry, and
// prints the same rows/series the paper reports.
//
// Scaling: the paper joins 100M–1300M elements on a machine with four SAS
// disks; the harness defaults to 1/1000 of the paper's element counts so a
// full run finishes in minutes, and exposes the factor as a knob. The
// phenomena under study (relative density, skew, replication) depend on
// density ratios and distribution shapes, which scaling preserves; disk time
// is modeled from counted page I/O (see internal/storage).
package bench

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/geom"
	"repro/transformers"
)

// Config controls a harness run.
type Config struct {
	// Scale multiplies the paper's element counts (default 0.001).
	Scale float64
	// Out receives the report tables.
	Out io.Writer
	// Seed offsets workload generation.
	Seed int64
	// Parallel sets the TRANSFORMERS join worker count the experiments use
	// (0/1 = the paper-faithful single thread, so reproduced numbers stay
	// comparable).
	Parallel int
	// Sink, when set, receives one Sample per algorithm execution — the
	// machine-readable feed behind `cmd/experiments -json`.
	Sink func(Sample)
	// Algos restricts the engines algorithm-sweeping experiments drive
	// (names from engine.Names()); empty keeps each experiment's default
	// set. The feed behind `cmd/experiments -algo`.
	Algos []string

	// experiment is the id currently running; runOne stamps it so samples
	// carry their provenance.
	experiment string
}

func (c Config) normalize() Config {
	if c.Scale <= 0 {
		c.Scale = 0.001
	}
	return c
}

// Sample is the machine-readable record of one algorithm execution inside an
// experiment: the paper's three join-phase metrics plus I/O detail, for
// tracking the perf trajectory across commits.
type Sample struct {
	Experiment string `json:"experiment"`
	Algorithm  string `json:"algorithm"`
	// Workload names the data distribution when the experiment sweeps
	// several (the cross-engine "engines" comparison).
	Workload        string  `json:"workload,omitempty"`
	Parallel        int     `json:"parallel,omitempty"`
	BuildTotalMS    float64 `json:"build_total_ms"`
	JoinWallMS      float64 `json:"join_wall_ms"`
	JoinIOTimeMS    float64 `json:"join_io_ms"`
	JoinTotalMS     float64 `json:"join_total_ms"`
	Comparisons     uint64  `json:"comparisons"`
	MetaComparisons uint64  `json:"meta_comparisons"`
	Results         uint64  `json:"results"`
	Reads           uint64  `json:"io_reads"`
	RandReads       uint64  `json:"io_rand_reads"`
	BytesRead       uint64  `json:"io_bytes_read"`

	// In-memory stripe-partition detail, present when the inmem engine ran:
	// the effective cut and the boundary replication it cost.
	InMemStripes    int `json:"inmem_stripes,omitempty"`
	InMemReplicated int `json:"inmem_replicated,omitempty"`
}

// ms converts a duration to fractional milliseconds for JSON output.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// record forwards one sample to the sink, stamping the running experiment.
func (c Config) record(s Sample) {
	if c.Sink == nil {
		return
	}
	s.Experiment = c.experiment
	c.Sink(s)
}

// sampleFromResult flattens an engine result into a Sample.
func sampleFromResult(res *engine.Result, parallel int) Sample {
	s := Sample{
		Algorithm:       res.Engine,
		Parallel:        parallel,
		BuildTotalMS:    ms(res.Stats.BuildTotal),
		JoinWallMS:      ms(res.Stats.JoinWall),
		JoinIOTimeMS:    ms(res.Stats.JoinIOTime),
		JoinTotalMS:     ms(res.Stats.JoinTotal),
		Comparisons:     res.Stats.Candidates,
		MetaComparisons: res.Stats.MetaComparisons,
		Results:         res.Stats.Refinements,
		Reads:           res.Stats.JoinIO.Reads,
		RandReads:       res.Stats.JoinIO.RandReads,
		BytesRead:       res.Stats.JoinIO.BytesRead,
	}
	if im := res.Stats.InMem; im != nil {
		s.InMemStripes = im.Stripes
		s.InMemReplicated = im.ReplicatedA + im.ReplicatedB
	}
	return s
}

// scaled converts a paper element count to the run's element count.
func (c Config) scaled(paperN int) int {
	n := int(float64(paperN) * c.Scale)
	if n < 16 {
		n = 16
	}
	return n
}

// pbsmTiles scales PBSM's tile grid with the workload so the paper's
// operating point is preserved: the paper's best configurations (10^3
// partitions for synthetic data, 20^3 for neuroscience, §VII-A) put ~10^5
// elements — hundreds of pages — in each partition, which is what makes
// PBSM's partition pages interleave on disk and its join reads random.
// Keeping 10^3 tiles at 1/1000 scale would leave one page per partition and
// silently erase that effect, so tiles shrink with cbrt(scale).
func (c Config) pbsmTiles(paperTilesPerDim int) int {
	t := int(math.Round(float64(paperTilesPerDim) * math.Cbrt(c.Scale)))
	if t < 2 {
		t = 2
	}
	return t
}

// Experiment is one regenerable table or figure.
type Experiment struct {
	// ID is the short name used by -exp flags (e.g. "fig10").
	ID string
	// Paper names the table/figure reproduced.
	Paper string
	// Description summarizes workload and metric.
	Description string
	// Run executes the experiment and writes its table.
	Run func(cfg Config) error
}

// Experiments returns the registry, in the paper's presentation order.
func Experiments() []Experiment {
	return []Experiment{
		{
			ID:          "fig10",
			Paper:       "Figure 1 & Figure 10",
			Description: "join time across relative density ratios 1000x..1x..1000x (uniform data), all four algorithms",
			Run:         runFig10,
		},
		{
			ID:          "fig11-index",
			Paper:       "Figure 11 (left)",
			Description: "indexing time, DenseCluster./UniformCluster, 350M-650M elements",
			Run:         runFig11Index,
		},
		{
			ID:          "fig11-join",
			Paper:       "Figure 11 (middle)",
			Description: "join time breakdown (I/O vs in-memory), DenseCluster./UniformCluster",
			Run:         runFig11Join,
		},
		{
			ID:          "fig11-tests",
			Paper:       "Figure 11 (right)",
			Description: "number of intersection tests, DenseCluster./UniformCluster",
			Run:         runFig11Tests,
		},
		{
			ID:          "fig12-index",
			Paper:       "Figure 12 (left)",
			Description: "indexing time, neuroscience data (60% axons / 40% dendrites), 100M-350M",
			Run:         runFig12Index,
		},
		{
			ID:          "fig12-join",
			Paper:       "Figure 12 (middle)",
			Description: "join time breakdown, neuroscience data",
			Run:         runFig12Join,
		},
		{
			ID:          "fig12-tests",
			Paper:       "Figure 12 (right)",
			Description: "number of intersection tests, neuroscience data",
			Run:         runFig12Tests,
		},
		{
			ID:          "tab1",
			Paper:       "Table I",
			Description: "execution time on uniformly distributed datasets, 150M-350M",
			Run:         runTable1,
		},
		{
			ID:          "fig13-left",
			Paper:       "Figure 13 (left)",
			Description: "impact of transformations: TRANSFORMERS vs No-TR on MassiveCluster, 50M-350M",
			Run:         runFig13Left,
		},
		{
			ID:          "fig13-right",
			Paper:       "Figure 13 (right)",
			Description: "threshold sensitivity: OverFit vs CostModelFit vs UnderFit across distributions",
			Run:         runFig13Right,
		},
		{
			ID:          "fig14",
			Paper:       "Figure 14",
			Description: "adaptive exploration overhead vs join cost on MassiveCluster, 50M-350M",
			Run:         runFig14,
		},
		{
			ID:          "engines",
			Paper:       "extension (engine comparison)",
			Description: "cross-engine comparison on uniform/clustered/skewed data, every registered engine, join wall and modeled I/O apart",
			Run:         runEngines,
		},
	}
}

// RunByID runs one experiment ("all" runs the full suite in order).
func RunByID(id string, cfg Config) error {
	cfg = cfg.normalize()
	if id == "all" {
		for _, e := range Experiments() {
			if err := runOne(e, cfg); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range Experiments() {
		if e.ID == id {
			return runOne(e, cfg)
		}
	}
	known := make([]string, 0, len(Experiments()))
	for _, e := range Experiments() {
		known = append(known, e.ID)
	}
	sort.Strings(known)
	return fmt.Errorf("bench: unknown experiment %q (known: %s, all)", id, strings.Join(known, ", "))
}

func runOne(e Experiment, cfg Config) error {
	cfg.experiment = e.ID
	fmt.Fprintf(cfg.Out, "=== %s — %s ===\n%s\n(scale %g of the paper's element counts)\n\n",
		e.ID, e.Paper, e.Description, cfg.Scale)
	start := time.Now()
	if err := e.Run(cfg); err != nil {
		return fmt.Errorf("bench %s: %w", e.ID, err)
	}
	fmt.Fprintf(cfg.Out, "\n[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

// table is a minimal aligned-column printer.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

// dur formats a duration compactly for tables.
func dur(d time.Duration) string {
	switch {
	case d >= time.Hour:
		return fmt.Sprintf("%.2fh", d.Hours())
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
}

// count formats large counters with SI-ish suffixes.
func count(n uint64) string {
	switch {
	case n >= 1_000_000_000:
		return fmt.Sprintf("%.2fB", float64(n)/1e9)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 1_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}

// executeEngine is the single execution step behind runAlgo and the
// experiments that stamp their own samples. The harness only needs the
// counters, so pairs are counted as they are emitted, never collected, and
// the count is cross-checked against the engine's Refinements counter.
func executeEngine(name string, a, b []transformers.Element, opt engine.Options) (*engine.Result, error) {
	var emitted uint64
	res, err := engine.RunStream(context.Background(), name, a, b, opt,
		func(geom.Pair) error { emitted++; return nil })
	if err == nil && emitted != res.Stats.Refinements {
		return nil, fmt.Errorf("bench: %s emitted %d pairs but reports %d refinements",
			name, emitted, res.Stats.Refinements)
	}
	return res, err
}

// runAlgo is the shared "generate fresh data, run engine" step; data is
// regenerated per run because partitioners reorder their inputs. Every
// engine goes through the registry. The harness-wide Parallel knob applies
// to engines that support it unless the experiment pinned its own worker
// count, and every execution feeds the sample sink.
func runAlgo(cfg Config, name string, genA, genB func() []transformers.Element, opt engine.Options) (*engine.Result, error) {
	if opt.Parallelism == 0 {
		opt.Parallelism = cfg.Parallel
	}
	res, err := executeEngine(name, genA(), genB(), opt)
	if err != nil {
		return nil, err
	}
	parallel := 0
	if name == engine.Transformers {
		parallel = opt.Parallelism
	}
	cfg.record(sampleFromResult(res, parallel))
	return res, nil
}

// filterAlgos intersects an experiment's default engine list with the
// harness-wide -algo restriction, preserving the default order.
func (c Config) filterAlgos(defaults []string) []string {
	if len(c.Algos) == 0 {
		return defaults
	}
	keep := make(map[string]bool, len(c.Algos))
	for _, a := range c.Algos {
		keep[a] = true
	}
	out := make([]string, 0, len(defaults))
	for _, d := range defaults {
		if keep[d] {
			out = append(out, d)
		}
	}
	if len(out) == 0 {
		// Surface the mismatch: a registered-but-irrelevant -algo (e.g.
		// grid against a paper figure) would otherwise run an experiment
		// over zero engines and read as a successful empty measurement.
		fmt.Fprintf(c.Out, "(-algo %v does not intersect this experiment's engine set %v; nothing to run)\n",
			c.Algos, defaults)
	}
	return out
}
