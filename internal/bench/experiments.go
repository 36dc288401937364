package bench

import (
	"fmt"
	"math"

	"repro/internal/engine"
	"repro/internal/engine/planner"
	"repro/transformers"
)

// paperM converts the paper's "millions of elements" counts.
const paperM = 1_000_000

// paperAlgos is the paper's evaluation set in presentation order.
func paperAlgos() []string {
	return []string{engine.Transformers, engine.PBSM, engine.RTree, engine.GIPSY}
}

// fig10Pairs derives the nine dataset-size pairs of Figs. 1/10: dataset A
// grows 200K→200M while B shrinks 200M→200K, with the labeled density
// ratios; the combined size stays ~200M so A = T/(1+r), B = T·r/(1+r).
func fig10Pairs(cfg Config) []struct {
	ratio    int
	nA, nB   int
	swapside bool
} {
	ratios := []int{1000, 100, 50, 10, 1, 10, 50, 100, 1000}
	const total = 200*paperM + 200_000
	out := make([]struct {
		ratio    int
		nA, nB   int
		swapside bool
	}, 0, len(ratios))
	for i, r := range ratios {
		sparse := cfg.scaled(total / (1 + r))
		dense := cfg.scaled(total * r / (1 + r))
		p := struct {
			ratio    int
			nA, nB   int
			swapside bool
		}{ratio: r, nA: sparse, nB: dense, swapside: i > len(ratios)/2}
		if p.swapside {
			p.nA, p.nB = p.nB, p.nA // mirrored half: A dense, B sparse
		}
		out = append(out, p)
	}
	return out
}

func runFig10(cfg Config) error {
	algos := cfg.filterAlgos(paperAlgos())
	t := &table{header: append([]string{"A", "B", "ratio"}, algos...)}
	for i, p := range fig10Pairs(cfg) {
		row := []string{count(uint64(p.nA)), count(uint64(p.nB)), fmt.Sprintf("%dx", p.ratio)}
		for _, alg := range algos {
			genA := func() []transformers.Element {
				return transformers.GenerateUniform(p.nA, cfg.Seed+int64(i))
			}
			genB := func() []transformers.Element {
				return transformers.GenerateUniform(p.nB, cfg.Seed+int64(i)+100)
			}
			rep, err := runAlgo(cfg, alg, genA, genB, engine.Options{PBSMTilesPerDim: cfg.pbsmTiles(10)})
			if err != nil {
				return err
			}
			row = append(row, dur(rep.Stats.JoinTotal))
		}
		t.addRow(row...)
	}
	t.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "\njoin time only (indexing excluded), as in the paper; expected shape:")
	fmt.Fprintln(cfg.Out, "PBSM wins near 1x but collapses at 1000x; GIPSY the reverse; R-TREE")
	fmt.Fprintln(cfg.Out, "dominated; TRANSFORMERS within a small factor of the best everywhere.")
	return nil
}

// fig11Sizes returns the per-dataset element counts for the synthetic
// clustered experiment (350M–650M combined).
func fig11Sizes(cfg Config) []int {
	var out []int
	for _, total := range []int{350, 450, 550, 650} {
		out = append(out, cfg.scaled(total*paperM/2))
	}
	return out
}

// fig11Algos: the paper excludes GIPSY from the clustered experiments due to
// its execution time on similar-density data.
func fig11Algos() []string {
	return []string{engine.Transformers, engine.PBSM, engine.RTree}
}

func fig11Gens(cfg Config, n int) (func() []transformers.Element, func() []transformers.Element) {
	genA := func() []transformers.Element {
		return transformers.GenerateDenseCluster(n, cfg.Seed+1)
	}
	genB := func() []transformers.Element {
		return transformers.GenerateUniformCluster(n, cfg.Seed+2)
	}
	return genA, genB
}

func fig11Opts(cfg Config) engine.Options {
	return engine.Options{PBSMTilesPerDim: cfg.pbsmTiles(10)}
}

func runFig11Index(cfg Config) error {
	return runIndexPanel(cfg, fig11Sizes(cfg), fig11Gens, fig11Opts(cfg))
}

func runFig11Join(cfg Config) error {
	return runJoinPanel(cfg, fig11Sizes(cfg), fig11Gens, fig11Opts(cfg))
}

func runFig11Tests(cfg Config) error {
	return runTestsPanel(cfg, fig11Sizes(cfg), fig11Gens, fig11Opts(cfg))
}

// fig12Sizes returns (axons, dendrites) pairs for the neuroscience
// experiment: 100M–350M combined, 60%/40% (§II-B).
func fig12Sizes(cfg Config) []int {
	var out []int
	for _, total := range []int{100, 250, 350} {
		out = append(out, cfg.scaled(total*paperM)) // combined; split in gens
	}
	return out
}

func fig12Gens(cfg Config, combined int) (func() []transformers.Element, func() []transformers.Element) {
	nAxons := combined * 60 / 100
	nDendrites := combined - nAxons
	genA := func() []transformers.Element {
		return transformers.GenerateAxons(nAxons, cfg.Seed+3)
	}
	genB := func() []transformers.Element {
		return transformers.GenerateDendrites(nDendrites, cfg.Seed+4)
	}
	return genA, genB
}

// fig12Opts: the paper's best PBSM configuration for neuroscience data uses
// 20^3 partitions (scaled with the workload).
func fig12Opts(cfg Config) engine.Options {
	return engine.Options{PBSMTilesPerDim: cfg.pbsmTiles(20)}
}

func runFig12Index(cfg Config) error {
	return runIndexPanel(cfg, fig12Sizes(cfg), fig12Gens, fig12Opts(cfg))
}

func runFig12Join(cfg Config) error {
	return runJoinPanel(cfg, fig12Sizes(cfg), fig12Gens, fig12Opts(cfg))
}

func runFig12Tests(cfg Config) error {
	return runTestsPanel(cfg, fig12Sizes(cfg), fig12Gens, fig12Opts(cfg))
}

// runIndexPanel prints the indexing-time panel (Figs. 11/12 left).
func runIndexPanel(cfg Config, sizes []int, gens func(Config, int) (func() []transformers.Element, func() []transformers.Element), opt engine.Options) error {
	algos := cfg.filterAlgos(fig11Algos())
	t := &table{header: []string{"N per side"}}
	for _, a := range algos {
		t.header = append(t.header, a+" index")
	}
	for _, n := range sizes {
		row := []string{count(uint64(n))}
		for _, alg := range algos {
			genA, genB := gens(cfg, n)
			rep, err := runAlgo(cfg, alg, genA, genB, opt)
			if err != nil {
				return err
			}
			row = append(row, dur(rep.Stats.BuildTotal))
		}
		t.addRow(row...)
	}
	t.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "\nexpected shape: PBSM indexes ~3x faster than TRANSFORMERS (grid")
	fmt.Fprintln(cfg.Out, "assignment vs 3D sort); R-TREE slowest (recursive level building).")
	return nil
}

// runJoinPanel prints the join-time breakdown panel (Figs. 11/12 middle):
// per algorithm, modeled I/O time and in-memory join time.
func runJoinPanel(cfg Config, sizes []int, gens func(Config, int) (func() []transformers.Element, func() []transformers.Element), opt engine.Options) error {
	algos := cfg.filterAlgos(fig11Algos())
	t := &table{header: []string{"N per side"}}
	for _, a := range algos {
		t.header = append(t.header, a+" I/O", a+" join", a+" total")
	}
	for _, n := range sizes {
		row := []string{count(uint64(n))}
		for _, alg := range algos {
			genA, genB := gens(cfg, n)
			rep, err := runAlgo(cfg, alg, genA, genB, opt)
			if err != nil {
				return err
			}
			row = append(row, dur(rep.Stats.JoinIOTime), dur(rep.Stats.JoinWall), dur(rep.Stats.JoinTotal))
		}
		t.addRow(row...)
	}
	t.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "\nexpected shape: TRANSFORMERS fastest with the smallest I/O share;")
	fmt.Fprintln(cfg.Out, "PBSM dominated by (random) I/O; R-TREE pays overlap-induced reads.")
	return nil
}

// runTestsPanel prints the #intersection-tests panel (Figs. 11/12 right).
// For TRANSFORMERS the count includes metadata comparisons, as in the paper.
func runTestsPanel(cfg Config, sizes []int, gens func(Config, int) (func() []transformers.Element, func() []transformers.Element), opt engine.Options) error {
	algos := cfg.filterAlgos(fig11Algos())
	t := &table{header: []string{"N per side"}}
	for _, a := range algos {
		t.header = append(t.header, a+" tests")
	}
	for _, n := range sizes {
		row := []string{count(uint64(n))}
		for _, alg := range algos {
			genA, genB := gens(cfg, n)
			rep, err := runAlgo(cfg, alg, genA, genB, opt)
			if err != nil {
				return err
			}
			tests := rep.Stats.Candidates
			if alg == engine.Transformers {
				tests += rep.Stats.MetaComparisons // §VII-C2: "this also includes metadata comparisons"
			}
			row = append(row, count(tests))
		}
		t.addRow(row...)
	}
	t.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "\nexpected shape: PBSM several times more tests (coarse cells +")
	fmt.Fprintln(cfg.Out, "replication); TRANSFORMERS lowest despite counting metadata tests.")
	return nil
}

func runTable1(cfg Config) error {
	algos := cfg.filterAlgos(fig11Algos())
	t := &table{header: append([]string{"N per side"}, algos...)}
	for _, total := range []int{150, 250, 350} {
		n := cfg.scaled(total * paperM / 2)
		row := []string{count(uint64(n))}
		for _, alg := range algos {
			genA := func() []transformers.Element { return transformers.GenerateUniform(n, cfg.Seed+5) }
			genB := func() []transformers.Element { return transformers.GenerateUniform(n, cfg.Seed+6) }
			rep, err := runAlgo(cfg, alg, genA, genB, engine.Options{PBSMTilesPerDim: cfg.pbsmTiles(10)})
			if err != nil {
				return err
			}
			row = append(row, dur(rep.Stats.JoinTotal))
		}
		t.addRow(row...)
	}
	t.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "\npaper's Table I (hours): TR 0.16/0.30/0.49, PBSM 1.02/2.24/4.28,")
	fmt.Fprintln(cfg.Out, "R-TREE 4.55/11.63/24.92 — TR ~6-8x over PBSM, ~20x+ over R-TREE.")
	return nil
}

func runFig13Left(cfg Config) error {
	t := &table{header: []string{"N per side", "No TR", "TRANSFORMERS", "speedup"}}
	for _, total := range []int{50, 150, 250, 350} {
		n := cfg.scaled(total * paperM / 2)
		genA := func() []transformers.Element { return transformers.GenerateMassiveCluster(n, cfg.Seed+7) }
		genB := func() []transformers.Element { return transformers.GenerateMassiveCluster(n, cfg.Seed+8) }
		noTR, err := runAlgo(cfg, engine.Transformers, genA, genB,
			engine.Options{DisableTransforms: true})
		if err != nil {
			return err
		}
		withTR, err := runAlgo(cfg, engine.Transformers, genA, genB, engine.Options{})
		if err != nil {
			return err
		}
		speedup := float64(noTR.Stats.JoinTotal) / float64(withTR.Stats.JoinTotal)
		t.addRow(count(uint64(n)), dur(noTR.Stats.JoinTotal), dur(withTR.Stats.JoinTotal),
			fmt.Sprintf("%.2fx", speedup))
	}
	t.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "\npaper: transformations improve join time 1.2-1.6x, growing with skew")
	fmt.Fprintln(cfg.Out, "(MassiveCluster skew grows with dataset size).")
	return nil
}

func runFig13Right(cfg Config) error {
	n := cfg.scaled(350 * paperM / 2)
	workloads := []struct {
		name       string
		genA, genB func() []transformers.Element
	}{
		{
			name: "MassiveCluster",
			genA: func() []transformers.Element { return transformers.GenerateMassiveCluster(n, cfg.Seed+9) },
			genB: func() []transformers.Element { return transformers.GenerateMassiveCluster(n, cfg.Seed+10) },
		},
		{
			name: "UniformvsDenseCluster",
			genA: func() []transformers.Element { return transformers.GenerateUniformCluster(n, cfg.Seed+11) },
			genB: func() []transformers.Element { return transformers.GenerateDenseCluster(n, cfg.Seed+12) },
		},
		{
			name: "Uniform",
			genA: func() []transformers.Element { return transformers.GenerateUniform(n, cfg.Seed+13) },
			genB: func() []transformers.Element { return transformers.GenerateUniform(n, cfg.Seed+14) },
		},
	}
	configs := []struct {
		name string
		join engine.Options
	}{
		{"OverFit", engine.Options{TSU: 1.5, TSO: 1.5, FixedThresholds: true}},
		{"CostModelFit", engine.Options{}},
		{"UnderFit", engine.Options{TSU: 1e6, TSO: 1e6, FixedThresholds: true}},
	}
	t := &table{header: []string{"distribution", "OverFit", "CostModelFit", "UnderFit"}}
	for _, w := range workloads {
		row := []string{w.name}
		for _, c := range configs {
			rep, err := runAlgo(cfg, engine.Transformers, w.genA, w.genB, c.join)
			if err != nil {
				return err
			}
			row = append(row, dur(rep.Stats.JoinTotal))
		}
		t.addRow(row...)
	}
	t.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "\npaper: the cost model tracks the better static extreme per workload —")
	fmt.Fprintln(cfg.Out, "close to OverFit on MassiveCluster, close to UnderFit on Uniform.")
	return nil
}

func runFig14(cfg Config) error {
	t := &table{header: []string{"N per side", "overhead", "join cost", "total", "overhead %"}}
	for _, total := range []int{50, 150, 250, 350} {
		n := cfg.scaled(total * paperM / 2)
		genA := func() []transformers.Element { return transformers.GenerateMassiveCluster(n, cfg.Seed+15) }
		genB := func() []transformers.Element { return transformers.GenerateMassiveCluster(n, cfg.Seed+16) }
		rep, err := runAlgo(cfg, engine.Transformers, genA, genB, engine.Options{})
		if err != nil {
			return err
		}
		overhead := rep.Stats.Transformers.ExploreWall
		joinCost := rep.Stats.Transformers.JoinWall + rep.Stats.JoinIOTime
		totalT := overhead + joinCost
		pct := 0.0
		if totalT > 0 {
			pct = float64(overhead) / float64(totalT) * 100
		}
		t.addRow(count(uint64(n)), dur(overhead), dur(joinCost), dur(totalT),
			fmt.Sprintf("%.1f%%", pct))
	}
	t.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "\npaper: adaptive exploration overhead averages 17% of join execution;")
	fmt.Fprintln(cfg.Out, "layout transformations keep it low by coarsening when walks get long.")
	return nil
}

// enginesWorkloads are the three distributions of the cross-engine
// comparison: the uniform baseline, the paper's clustered pairing (Fig. 11)
// and the heavily skewed MassiveCluster self-join (Fig. 13).
func enginesWorkloads(cfg Config, n int) []struct {
	name       string
	genA, genB func() []transformers.Element
} {
	return []struct {
		name       string
		genA, genB func() []transformers.Element
	}{
		{
			name: "uniform",
			genA: func() []transformers.Element { return transformers.GenerateUniform(n, cfg.Seed+41) },
			genB: func() []transformers.Element { return transformers.GenerateUniform(n, cfg.Seed+42) },
		},
		{
			name: "clustered",
			genA: func() []transformers.Element { return transformers.GenerateDenseCluster(n, cfg.Seed+43) },
			genB: func() []transformers.Element { return transformers.GenerateUniformCluster(n, cfg.Seed+44) },
		},
		{
			name: "skewed",
			genA: func() []transformers.Element { return transformers.GenerateMassiveCluster(n, cfg.Seed+45) },
			genB: func() []transformers.Element { return transformers.GenerateMassiveCluster(n, cfg.Seed+46) },
		},
	}
}

// runEngines drives every registered engine over the three distributions and
// prints measured cost next to the planner's prediction for the engines it
// prices; the others read "excluded". One sample per engine per workload
// feeds the sink, stamped with the workload and the predicted cost.
func runEngines(cfg Config) error {
	n := cfg.scaled(20 * paperM)
	algos := cfg.filterAlgos(engine.Names())
	t := &table{header: []string{"workload", "engine", "predicted", "build", "join total", "candidates", "pages", "planner pick"}}
	for _, w := range enginesWorkloads(cfg, n) {
		sa := planner.Analyze(w.genA())
		sb := planner.Analyze(w.genB())
		decision := planner.Plan(sa, sb, planner.Config{})
		predicted := make(map[string]float64, len(decision.Scores))
		for _, s := range decision.Scores {
			predicted[s.Engine] = s.CostMS
		}
		for _, name := range algos {
			if name == engine.Naive && float64(n)*float64(n) > 1e9 {
				fmt.Fprintf(cfg.Out, "(skipping %s: |A|·|B| too large at this scale)\n", name)
				continue
			}
			// Not via runAlgo: the sample needs the workload and
			// prediction stamps, so record it here instead.
			rep, err := executeEngine(name, w.genA(), w.genB(),
				engine.Options{PBSMTilesPerDim: cfg.pbsmTiles(10), Parallelism: cfg.Parallel})
			if err != nil {
				return err
			}
			pick := ""
			if name == decision.Engine {
				pick = "<== planned"
			}
			predCol := "excluded"
			s := sampleFromResult(rep, 0)
			s.Workload = w.name
			if p, ok := predicted[name]; ok && !math.IsInf(p, 0) {
				predCol = fmt.Sprintf("%.1fms", p)
				s.PlannerCostMS = p
			}
			t.addRow(w.name, name, predCol, dur(rep.Stats.BuildTotal),
				dur(rep.Stats.JoinTotal), count(rep.Stats.Candidates), count(rep.Stats.PagesRead), pick)
			cfg.record(s)
		}
	}
	t.write(cfg.Out)
	fmt.Fprintln(cfg.Out, "\ncross-engine comparison on the planner's three canonical distributions;")
	fmt.Fprintln(cfg.Out, "predictions come from internal/engine/planner and should preserve the")
	fmt.Fprintln(cfg.Out, "measured ordering (the absolute values are rough by design).")
	return nil
}
