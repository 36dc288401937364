package bench

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/transformers"
)

// The "plannerfit" experiment measures the planner's self-correction loop end
// to end, mirroring the serving sequence: record executed joins with
// hand-tuned predictions, fit per-engine cost-term multipliers offline
// (planner.Fit), replay the recorded measurements through the online drift
// corrector against the calibrated predictions (what the daemon would have
// observed with the calibration loaded), then evaluate both models on
// held-out executions of every (distribution, engine) cell. BENCH_3.json
// records the outcome: per-engine mean relative error, hand-tuned vs
// calibrated + corrected.

// plannerFitTrainReps is how many training executions feed the fit and the
// corrector per (workload, engine) cell; plannerFitEvalReps held-out
// executions are averaged for evaluation. One extra warm-up execution is
// discarded first (allocator and page-store warm-up inflates first-run wall
// times, which would bias the fit high), and training and held-out
// executions alternate within one pass so slow machine drift (thermal,
// cache pressure) lands on both populations equally instead of biasing the
// fit against a later evaluation phase. The held-out measurements never
// reach the fit or the corrector.
const (
	plannerFitTrainReps = 3
	plannerFitEvalReps  = 3
)

// plannerFitCorrectorPasses is how many times the training measurements are
// replayed through the drift corrector. A served pair popular enough to
// matter sees hundreds of joins, so its EWMA converges onto the pair's
// stationary measured/predicted ratio; replaying the recorded distribution
// until convergence models that steady state instead of a three-join cold
// start (after which the EWMA still carries 61% of the initial bias).
const plannerFitCorrectorPasses = 20

// plannerCostMS is the planner's measured cost currency: build + join wall +
// modeled I/O, like the serving layer's planner accuracy samples.
func plannerCostMS(res *engine.Result) float64 {
	return ms(res.Stats.BuildTotal + res.Stats.JoinWall + res.Stats.JoinIOTime)
}

func runPlannerFit(cfg Config) error {
	n := cfg.scaled(20 * paperM)
	algos := cfg.filterAlgos(engine.Names())
	opt := engine.Options{PBSMTilesPerDim: cfg.pbsmTiles(10), Parallelism: cfg.Parallel,
		ShardTiles: cfg.ShardTiles}

	type cell struct {
		engine   string
		terms    map[string]float64 // raw decomposition from the hand-tuned plan
		handPred float64
		measured []float64 // training executions
		held     []float64 // held-out executions (evaluation only)
		last     *engine.Result
	}
	type workloadState struct {
		name       string
		genA, genB func() []transformers.Element
		sa, sb     planner.DatasetStats
		cells      []*cell
	}

	// Measurement pass: execute every finitely-priced engine, alternating
	// training and held-out executions after the discarded warm-up. Only the
	// training measurements become fit rows.
	var states []*workloadState
	var fitSamples []planner.FitSample
	baseCfg := planner.Config{ShardTiles: cfg.ShardTiles, ShardWorkers: cfg.Parallel}
	for _, w := range enginesWorkloads(cfg, n) {
		ws := &workloadState{name: w.name, genA: w.genA, genB: w.genB,
			sa: planner.Analyze(w.genA()), sb: planner.Analyze(w.genB())}
		handScores := make(map[string]planner.Score)
		for _, s := range planner.Plan(ws.sa, ws.sb, baseCfg).Scores {
			handScores[s.Engine] = s
		}
		for _, name := range algos {
			hs, ok := handScores[name]
			if !ok || math.IsInf(hs.CostMS, 0) || math.IsNaN(hs.CostMS) {
				fmt.Fprintf(cfg.Out, "(skipping %s on %s: %s)\n", name, w.name, hs.Reason)
				continue
			}
			c := &cell{engine: name, handPred: hs.CostMS, terms: make(map[string]float64, len(hs.Terms))}
			for _, t := range hs.Terms {
				c.terms[t.Name] = t.MS
			}
			for r := 0; r < plannerFitTrainReps+plannerFitEvalReps+1; r++ {
				res, err := executeEngine(name, w.genA(), w.genB(), opt)
				if err != nil {
					return err
				}
				if r == 0 {
					continue // discard the warm-up execution
				}
				m := plannerCostMS(res)
				if r%2 == 1 {
					c.measured = append(c.measured, m)
					fitSamples = append(fitSamples, planner.FitSample{Engine: name, Terms: c.terms, MeasuredMS: m})
				} else {
					c.held = append(c.held, m)
					c.last = res
				}
			}
			ws.cells = append(ws.cells, c)
		}
		states = append(states, ws)
	}

	calib, err := planner.Fit(fitSamples)
	if err != nil {
		return fmt.Errorf("plannerfit: %w", err)
	}

	// Corrector replay: with the calibration loaded, the daemon would have
	// observed each training execution against the calibrated prediction —
	// feed exactly those observations, keyed per workload pair.
	corrector := planner.NewCorrector()
	calibCfg := baseCfg
	calibCfg.Calibration = calib
	for _, ws := range states {
		calibScores := make(map[string]float64)
		for _, s := range planner.Plan(ws.sa, ws.sb, calibCfg).Scores {
			calibScores[s.Engine] = s.CostMS
		}
		for pass := 0; pass < plannerFitCorrectorPasses; pass++ {
			for _, c := range ws.cells {
				for _, m := range c.measured {
					corrector.Observe(ws.name+"-a", ws.name+"-b", c.engine, calibScores[c.engine], m)
				}
			}
		}
	}

	// Evaluation: compare both predictions against the mean held-out cost of
	// every cell (measurements the fit and corrector never saw).
	type errAgg struct {
		before, after float64
		n             int
	}
	byEngine := make(map[string]*errAgg)
	t := &table{header: []string{"workload", "engine", "hand-tuned", "calibrated+corrected", "measured", "rel err before", "rel err after"}}
	for _, ws := range states {
		finalCfg := calibCfg
		finalCfg.Correct = corrector.Bind(ws.name+"-a", ws.name+"-b")
		finalScores := make(map[string]float64)
		for _, s := range planner.Plan(ws.sa, ws.sb, finalCfg).Scores {
			finalScores[s.Engine] = s.CostMS
		}
		for _, c := range ws.cells {
			var measured float64
			for _, m := range c.held {
				measured += m
			}
			measured /= float64(len(c.held))
			if measured <= 0 {
				continue
			}
			finalPred := finalScores[c.engine]
			errBefore := math.Abs(c.handPred-measured) / measured
			errAfter := math.Abs(finalPred-measured) / measured
			a := byEngine[c.engine]
			if a == nil {
				a = &errAgg{}
				byEngine[c.engine] = a
			}
			a.before += errBefore
			a.after += errAfter
			a.n++
			s := sampleFromResult(c.last, 0)
			s.Workload = ws.name
			s.PlannerCostMS = c.handPred
			s.PlannerCalibratedMS = finalPred
			s.MeasuredCostMS = measured
			s.RelErrHandTuned = errBefore
			s.RelErrCalibrated = errAfter
			cfg.record(s)
			t.addRow(ws.name, c.engine, fmt.Sprintf("%.1fms", c.handPred),
				fmt.Sprintf("%.1fms", finalPred), fmt.Sprintf("%.1fms", measured),
				fmt.Sprintf("%.3f", errBefore), fmt.Sprintf("%.3f", errAfter))
		}
	}
	t.write(cfg.Out)

	names := make([]string, 0, len(byEngine))
	for name := range byEngine {
		names = append(names, name)
	}
	sort.Strings(names)
	at := &table{header: []string{"engine", "cells", "mean rel err hand-tuned", "mean rel err calibrated+corrected"}}
	for _, name := range names {
		a := byEngine[name]
		before, after := a.before/float64(a.n), a.after/float64(a.n)
		cfg.record(Sample{Algorithm: name, Workload: "aggregate",
			RelErrHandTuned: before, RelErrCalibrated: after})
		at.addRow(name, fmt.Sprintf("%d", a.n), fmt.Sprintf("%.3f", before), fmt.Sprintf("%.3f", after))
	}
	at.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "\nplanner accuracy on held-out executions: hand-tuned constants vs the")
	fmt.Fprintln(cfg.Out, "fitted calibration (planner.Fit over the training executions) with the")
	fmt.Fprintln(cfg.Out, "online drift corrector replayed per workload pair. The aggregate rows")
	fmt.Fprintln(cfg.Out, "are the per-engine means BENCH_3.json tracks.")
	return nil
}
