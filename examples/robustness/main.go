// Command robustness is the paper's headline experiment (Fig. 1 / Fig. 10)
// in miniature: it joins dataset pairs across the full relative-density
// spectrum (A sparse vs B dense through A dense vs B sparse) with all four
// algorithms and prints the join-time curves, showing that each static
// approach has a regime where it collapses while TRANSFORMERS stays flat.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/transformers"
)

func main() {
	total := flag.Int("total", 40_000, "combined elements per pair (the paper uses ~200M)")
	flag.Parse()

	// The paper's schedule: dataset A grows while B shrinks, combined size
	// roughly constant, so the density ratio sweeps 1000x..1x..1000x.
	ratios := []int{1000, 100, 50, 10, 1, 10, 50, 100, 1000}
	algos := []string{engine.Transformers, engine.PBSM, engine.RTree, engine.GIPSY}

	fmt.Printf("%-16s%7s", "A : B", "ratio")
	for _, alg := range algos {
		fmt.Printf("%15s", alg)
	}
	fmt.Println()

	for i, ratio := range ratios {
		nA := *total / (1 + ratio)
		nB := *total * ratio / (1 + ratio)
		if i > len(ratios)/2 {
			nA, nB = nB, nA // mirrored half of the sweep: A dense, B sparse
		}
		fmt.Printf("%-16s%6dx", fmt.Sprintf("%d:%d", nA, nB), ratio)
		for _, alg := range algos {
			a := transformers.GenerateUniform(nA, int64(i))
			b := transformers.GenerateUniform(nB, int64(i+100))
			res, err := engine.Run(context.Background(), alg, a, b, engine.Options{DiscardPairs: true})
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("%15s", res.Stats.JoinTotal.Round(1e6).String())
		}
		fmt.Println()
	}
	fmt.Println("\njoin time = in-memory time + modeled disk I/O (10k RPM SAS model);")
	fmt.Println("PBSM degrades at contrasting densities, GIPSY at similar densities;")
	fmt.Println("TRANSFORMERS stays within a small factor of the best everywhere.")
}
