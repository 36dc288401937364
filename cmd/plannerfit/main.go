// Command plannerfit fits per-engine planner cost constants from a planner
// accuracy log and emits a calibration file the daemon loads at startup.
//
// The input is the NDJSON stream spatialjoind writes with -planner-log (or
// the obs-artifacts copy a benchmark run leaves behind): one PlannerSample
// per executed join, carrying the chosen engine's raw cost-term decomposition
// and the measured execution cost. plannerfit regresses measured cost onto
// the terms per engine (ridge least squares toward the hand-tuned constants)
// and writes the fitted term multipliers as JSON:
//
//	plannerfit -in planner.ndjson -out calibration.json
//	spatialjoind -planner-calibration calibration.json
//
// Samples that cannot train a fit are skipped and tallied: cache hits
// (replayed measurements), partition hits (the measured cost has no build,
// the terms price one), samples without a term decomposition (explicit
// requests before this log format, or unpriced joins), and non-positive
// measured costs. Candidates listed in a sample's "excluded" map never have
// terms recorded, so they are ignored by construction. The process exits
// nonzero when no engine yields a usable fit, or when the fitted constants
// fail validation (non-finite or out-of-band multipliers) — the CI smoke
// gate.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"repro/internal/engine/planner"
	"repro/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("plannerfit: ")
	in := flag.String("in", "-", "planner accuracy NDJSON log (- = stdin)")
	out := flag.String("out", "-", "fitted calibration JSON output (- = stdout)")
	minSamples := flag.Int("min-samples", 8,
		"drop engines fitted from fewer usable samples than this (their multipliers stay hand-tuned)")
	flag.Parse()

	r := os.Stdin
	if *in != "-" && *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		r = f
	}

	samples, skipped, err := readSamples(r)
	if err != nil {
		log.Fatalf("%s: %v", *in, err)
	}
	log.Printf("%d usable samples (%d skipped: cache and partition hits, missing terms, unusable measurements)",
		len(samples), skipped)

	calib, err := planner.Fit(samples)
	if err != nil {
		log.Fatal(err)
	}
	for name, ec := range calib.Engines {
		if ec.Samples < *minSamples {
			log.Printf("%-18s %4d samples — below -min-samples %d, keeping hand-tuned constants",
				name, ec.Samples, *minSamples)
			delete(calib.Engines, name)
		}
	}
	if len(calib.Engines) == 0 {
		log.Fatalf("no engine reached -min-samples %d", *minSamples)
	}
	if err := calib.Validate(); err != nil {
		log.Fatalf("fitted calibration is invalid: %v", err)
	}
	for _, name := range sortedEngines(calib) {
		ec := calib.Engines[name]
		log.Printf("%-18s %4d samples, mean rel error %.3f -> %.3f, multipliers %v",
			name, ec.Samples, ec.MeanRelErrorBefore, ec.MeanRelErrorAfter, ec.Multipliers)
	}

	data, err := json.MarshalIndent(calib, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "-" || *out == "" {
		if _, err := os.Stdout.Write(data); err != nil {
			log.Fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
}

// readSamples parses the NDJSON log into fit samples, skipping records that
// cannot train a fit. Unparseable lines are errors — a corrupt log should be
// noticed, not silently half-read.
func readSamples(r io.Reader) ([]planner.FitSample, int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	var out []planner.FitSample
	skipped, line := 0, 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ps obs.PlannerSample
		if err := json.Unmarshal(sc.Bytes(), &ps); err != nil {
			return nil, 0, fmt.Errorf("line %d: %w", line, err)
		}
		if ps.CacheHit || ps.PartitionHit || len(ps.Terms) == 0 || ps.MeasuredMS <= 0 {
			skipped++
			continue
		}
		out = append(out, planner.FitSample{Engine: ps.Engine, Terms: ps.Terms, MeasuredMS: ps.MeasuredMS})
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	return out, skipped, nil
}

func sortedEngines(c *planner.Calibration) []string {
	names := make([]string, 0, len(c.Engines))
	for name := range c.Engines {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
