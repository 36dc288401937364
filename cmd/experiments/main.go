// Command experiments regenerates the tables and figures of the paper's
// evaluation section (§VII) at a configurable scale.
//
// Usage:
//
//	experiments -list
//	experiments -exp fig10
//	experiments -exp all -scale 0.0005
//	experiments -exp all -json > baseline.json
//
// Scale multiplies the paper's element counts (default 1/1000); absolute
// times differ from the paper's 2016 testbed, the shapes (who wins, by what
// factor) are what the run demonstrates. See README "Experiment CLI".
//
// -parallel sets the TRANSFORMERS join worker count (default 1, the paper's
// single-threaded execution).
// -json suppresses the human tables (they go to stderr) and emits one JSON
// document on stdout with per-experiment wall time and one sample per
// algorithm execution, so perf trajectories can be tracked across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/engine"
)

func main() {
	exp := flag.String("exp", "all", "experiment id to run (see -list), or 'all'")
	algo := flag.String("algo", "all",
		"engine the algorithm-sweeping experiments drive, or 'all' (registered: "+strings.Join(engine.Names(), ", ")+")")
	scale := flag.Float64("scale", 0.001, "fraction of the paper's element counts")
	seed := flag.Int64("seed", 1, "workload seed")
	parallel := flag.Int("parallel", 1, "TRANSFORMERS join worker count (1 = paper-faithful)")
	jsonOut := flag.Bool("json", false, "emit machine-readable results on stdout (tables go to stderr)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, e := range bench.Experiments() {
			fmt.Printf("  %-16s %-26s %s\n", e.ID, e.Paper, e.Description)
		}
		fmt.Println("registered engines:", strings.Join(engine.Names(), ", "))
		return
	}

	// The registry is the single source of engine names: -algo accepts
	// exactly what it serves, no per-algorithm code paths.
	var algos []string
	if *algo != "all" {
		if _, err := engine.Get(*algo); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(2)
		}
		algos = []string{*algo}
	}

	if !*jsonOut {
		cfg := bench.Config{Scale: *scale, Out: os.Stdout, Seed: *seed, Parallel: *parallel, Algos: algos}
		if err := bench.RunByID(*exp, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		return
	}

	type expResult struct {
		ID      string         `json:"id"`
		WallMS  float64        `json:"wall_ms"`
		Samples []bench.Sample `json:"samples"`
	}
	doc := struct {
		Scale       float64     `json:"scale"`
		Seed        int64       `json:"seed"`
		Parallel    int         `json:"parallel"`
		Algo        string      `json:"algo"`
		Engines     []string    `json:"engines"`
		Experiments []expResult `json:"experiments"`
	}{Scale: *scale, Seed: *seed, Parallel: *parallel, Algo: *algo, Engines: engine.Names()}

	ids := []string{*exp}
	if *exp == "all" {
		ids = ids[:0]
		for _, e := range bench.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		res := expResult{ID: id, Samples: []bench.Sample{}}
		cfg := bench.Config{
			Scale:    *scale,
			Out:      os.Stderr,
			Seed:     *seed,
			Parallel: *parallel,
			Algos:    algos,
			Sink:     func(s bench.Sample) { res.Samples = append(res.Samples, s) },
		}
		start := time.Now()
		if err := bench.RunByID(id, cfg); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		res.WallMS = float64(time.Since(start)) / float64(time.Millisecond)
		doc.Experiments = append(doc.Experiments, res)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
