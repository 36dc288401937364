package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// resultFile is benchmark/out/result.json: what `diff` compares.
type resultFile struct {
	Schema    string           `json:"schema"`
	Seed      int64            `json:"seed"`
	Reps      int              `json:"reps"`
	DurationS float64          `json:"duration_s"`
	NProc     int              `json:"nproc"`
	Go        string           `json:"go"`
	Workloads []workloadReport `json:"workloads"`
}

const resultSchema = "spatialjoind-benchmark/1"

// workloadReport is one workload's row: the client-view metrics (the table's
// bounded ones) as the median over the repetitions, with every repetition's
// value kept so diff can see the spread, and the first repetition's other
// metrics, traced layers included.
type workloadReport struct {
	Name      string              `json:"name"`
	Why       string              `json:"why"`
	Correct   bool                `json:"correct"`
	Valid     bool                `json:"valid"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	EndToEnd  map[string]e2eValue `json:"end_to_end"`
	PerLayer  map[string]Metric   `json:"per_layer"`
	Notes     []string            `json:"notes,omitempty"`
}

type e2eValue struct {
	Metric
	Runs []float64 `json:"runs"`
}

// fullRun measures all four workloads, prints every metric by name with its
// unit, and writes result.json and trace.json.
func fullRun(ctx context.Context, cfg config, reps int) int {
	if reps < 1 {
		reps = 1
	}
	file := resultFile{Schema: resultSchema, Seed: cfg.seed, Reps: reps,
		DurationS: cfg.window.Seconds(), NProc: runtime.NumCPU(), Go: runtime.Version()}
	var spans []Span
	code := 0
	for _, wl := range workloads {
		rep := workloadReport{Name: wl.Name, Why: wl.Why, Correct: true, Valid: true,
			EndToEnd: make(map[string]e2eValue), PerLayer: make(map[string]Metric)}
		for r := 0; r < reps; r++ {
			c := cfg
			c.seed = cfg.seed + int64(r)
			logf("-- %s: seed %d, %v window", wl.Name, c.seed, c.window)
			res, err := runWorkload(ctx, c, wl, r == 0)
			stopAllDaemons()
			printMetrics(res)
			if err != nil {
				logf("benchmark: %s: %v", wl.Name, err)
				res.Correct = false
				res.Notes = append(res.Notes, "ERROR: "+err.Error())
			}
			rep.Correct = rep.Correct && res.Correct
			rep.Valid = rep.Valid && res.Valid
			rep.Attempted += res.Attempted
			rep.Failed += res.Failed
			rep.Notes = append(rep.Notes, res.Notes...)
			for _, d := range metrics {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
				case d.Bound > 0:
					v := rep.EndToEnd[d.Name]
					v.Unit = d.Unit
					v.Runs = append(v.Runs, m.Value)
					rep.EndToEnd[d.Name] = v
				case r == 0:
					rep.PerLayer[d.Name] = m
				}
			}
			if r == 0 {
				spans = append(spans, res.spans...)
			}
			if ctx.Err() != nil {
				return 130
			}
		}
		for name, v := range rep.EndToEnd {
			v.Value = median(sortedCopy(v.Runs))
			rep.EndToEnd[name] = v
		}
		if !rep.Correct {
			code = 1
		}
		file.Workloads = append(file.Workloads, rep)
	}
	outDir := filepath.Join(cfg.root, "benchmark", "out")
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		logf("benchmark: %v", err)
		return 2
	}
	for name, v := range map[string]any{"result.json": file, "trace.json": struct {
		Spans []Span `json:"spans"`
	}{spans}} {
		data, err := json.MarshalIndent(v, "", " ")
		if err == nil {
			err = os.WriteFile(filepath.Join(outDir, name), append(data, '\n'), 0o644)
		}
		if err != nil {
			logf("benchmark: write %s: %v", name, err)
			return 2
		}
	}
	logf("wrote %s and trace.json (%d spans) at %s", filepath.Join(outDir, "result.json"), len(spans), time.Now().Format(time.RFC3339))
	return code
}

// minDiffRuns is how many runs a side needs before `diff` will judge it:
// below four there are no quartiles, so noise could not be told from change.
const minDiffRuns = 4

// diffMain implements `benchmark diff a.json b.json`: for every workload and
// client-view metric, b's median against a's, judged by the metric's bound.
// On a gated metric a worsening beyond the bound is a regression (exit 1)
// unless the inputs' own run-to-run spread exceeds the bound, which makes the
// pair unresolved. A demoted metric's delta is shown, not judged.
func diffMain(args []string) int {
	if len(args) != 2 {
		logf("usage: benchmark diff a.json b.json")
		return 2
	}
	var files [2]resultFile
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(data, &files[i])
		}
		if err == nil && files[i].Schema != resultSchema {
			err = fmt.Errorf("schema %q, want %q", files[i].Schema, resultSchema)
		}
		if err != nil {
			logf("benchmark diff: %s: %v", path, err)
			return 2
		}
	}
	regressions, rows, err := diffResults(files[0], files[1])
	if err != nil {
		logf("benchmark diff: %v", err)
		return 2
	}
	fmt.Printf("%-14s %-18s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "spread", "verdict")
	for _, r := range rows {
		fmt.Printf("%-14s %-18s %12.4f %12.4f %+7.1f%% %6.0f%% %6.1f%%  %s\n",
			r.Workload, r.Metric, r.A, r.B, r.Worse*100, r.Bound*100, r.Spread*100, r.Verdict)
	}
	if regressions > 0 {
		fmt.Printf("%d regression(s)\n", regressions)
		return 1
	}
	return 0
}

type diffRow struct {
	Workload, Metric string
	A, B             float64
	Worse            float64 // b's worsening as a share of a; negative = better
	Bound            float64
	Spread           float64 // the wider of the two inputs' interquartile spreads
	Verdict          string
}

// diffResults refuses inputs with fewer than minDiffRuns runs of a metric.
func diffResults(a, b resultFile) (regressions int, rows []diffRow, err error) {
	byName := make(map[string]workloadReport)
	for _, w := range b.Workloads {
		byName[w.Name] = w
	}
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, d := range metrics {
			va, okA := wa.EndToEnd[d.Name]
			vb, okB := wb.EndToEnd[d.Name]
			if d.Bound == 0 || !okA || !okB || va.Value == 0 {
				continue
			}
			if len(va.Runs) < minDiffRuns || len(vb.Runs) < minDiffRuns {
				return 0, nil, fmt.Errorf("%s %s has %d and %d runs; run both sides with -reps %d or more", wa.Name, d.Name, len(va.Runs), len(vb.Runs), minDiffRuns)
			}
			r := diffRow{Workload: wa.Name, Metric: d.Name, A: va.Value, B: vb.Value, Bound: d.Bound}
			r.Worse = (vb.Value - va.Value) / va.Value
			if d.Better == "higher" {
				r.Worse = -r.Worse
			}
			r.Spread = math.Max(spread(va.Runs), spread(vb.Runs))
			switch {
			case !d.Gate && r.Worse > d.Bound:
				r.Verdict = "not gated (beyond bound)"
			case !d.Gate:
				r.Verdict = "not gated"
			case r.Spread > d.Bound && !separated(va.Runs, vb.Runs):
				r.Verdict = "unresolved (spread exceeds bound)"
			case r.Worse > d.Bound:
				r.Verdict = "REGRESSION"
				regressions++
			default:
				r.Verdict = "ok"
			}
			rows = append(rows, r)
		}
		if !wb.Correct {
			rows = append(rows, diffRow{Workload: wa.Name, Metric: "correct", Verdict: "REGRESSION (b has wrong or failed answers)"})
			regressions++
		}
	}
	return regressions, rows, nil
}

// separated reports whether every run of one side lies strictly on one side
// of every run of the other: then the sign of the change is resolved however
// wide the spread is.
func separated(a, b []float64) bool {
	sa, sb := sortedCopy(a), sortedCopy(b)
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}
