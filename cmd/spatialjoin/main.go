// Command spatialjoin runs one spatial join end to end from the command
// line: generate (or load) two datasets, index them with the chosen
// algorithm, join, and print the cost report.
//
// Usage:
//
//	spatialjoin -algo transformers -a uniform:100000 -b massive:100000
//	spatialjoin -algo pbsm -a dense:50000 -b uniformcluster:50000 -v
//	spatialjoin -algo all -a axons:60000 -b dendrites:40000
//	spatialjoin -algo transformers -stream -a massive:100000 -b massive:100000 | wc -l
//
// Dataset specs are distribution:count with distributions uniform, dense
// (DenseCluster), uniformcluster, massive (MassiveCluster), axons,
// dendrites.
//
// Every engine runs through the registry's engine.Run (engine.RunStream with
// -stream), the runner the experiments use too, and prints its engine.Stats.
//
// The TRANSFORMERS join uses every core by default; -parallel 1 reproduces
// the paper's single-threaded execution (identical pair sets either way).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/transformers"
)

func main() {
	algo := flag.String("algo", "transformers",
		"engine: "+strings.Join(engine.Names(), ", ")+", or all (every registered engine)")
	specA := flag.String("a", "uniform:100000", "dataset A spec (distribution:count)")
	specB := flag.String("b", "uniform:100000", "dataset B spec (distribution:count)")
	seedA := flag.Int64("seed-a", 1, "dataset A seed")
	seedB := flag.Int64("seed-b", 2, "dataset B seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"TRANSFORMERS join worker count (1 = paper-faithful single thread)")
	stream := flag.Bool("stream", false,
		"stream result pairs as NDJSON on stdout as the join finds them (cost report goes to stderr)")
	verbose := flag.Bool("v", false, "print per-phase I/O detail")
	flag.Parse()

	a, err := generate(*specA, *seedA)
	fatalIf(err)
	b, err := generate(*specB, *seedB)
	fatalIf(err)
	opt := engine.Options{DiscardPairs: true, Parallelism: *parallel}
	if *stream {
		// Streaming mode: pairs on stdout (pipe-friendly NDJSON), report on
		// stderr, memory bounded regardless of result size.
		streamJoin(*algo, a, b, opt)
		return
	}
	fmt.Printf("dataset A: %s (%d elements), dataset B: %s (%d elements)\n\n",
		*specA, len(a), *specB, len(b))

	algos := []string{*algo}
	if *algo == "all" {
		algos = engine.Names()
	}
	for _, name := range algos {
		if *algo == "all" && name == engine.Naive && float64(len(a))*float64(len(b)) > 1e9 {
			fmt.Printf("%-18s skipped (|A|·|B| too large for the nested loop; run -algo naive explicitly)\n", name)
			continue
		}
		res, err := engine.Run(context.Background(), name,
			append([]transformers.Element(nil), a...), append([]transformers.Element(nil), b...), opt)
		fatalIf(err)
		st := res.Stats
		printReport(os.Stdout, name, st)
		if *verbose {
			fmt.Printf("                   comparisons=%d meta=%d\n", st.Candidates, st.MetaComparisons)
			fmt.Printf("                   build IO: %v\n", st.BuildIO)
			fmt.Printf("                   join  IO: %v\n", st.JoinIO)
			if name == engine.Transformers {
				ts := st.Transformers
				fmt.Printf("                   transforms: %d role switches, %d node splits, %d unit splits; walk steps %d\n",
					ts.RoleSwitches, ts.NodeSplits, ts.UnitSplits, ts.WalkSteps)
			}
		}
	}
}

// printReport writes one engine's report line: its result count, and its
// index and join cost, the join's split into in-memory time and modeled I/O.
func printReport(w io.Writer, name string, st engine.Stats) {
	fmt.Fprintf(w, "%-18s results=%-10d index: %-10v join: %v (in-mem %v + modeled I/O %v)\n",
		name, st.Refinements, st.BuildTotal.Round(1e5), st.JoinTotal.Round(1e5),
		st.JoinWall.Round(1e5), st.JoinIOTime.Round(1e5))
}

// streamJoin runs one engine's streaming path, writing each pair as one
// NDJSON line on stdout the moment the join finds it.
func streamJoin(name string, a, b []transformers.Element, opt engine.Options) {
	if name == "all" {
		fatalIf(fmt.Errorf("-stream needs one engine, not \"all\""))
	}
	bw := bufio.NewWriterSize(os.Stdout, 64<<10)
	res, err := engine.RunStream(context.Background(), name, a, b, opt,
		func(p transformers.Pair) error {
			_, err := bw.Write(append(p.AppendJSON(bw.AvailableBuffer()), '\n'))
			return err
		})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	fatalIf(err)
	printReport(os.Stderr, name, res.Stats)
}

func generate(spec string, seed int64) ([]transformers.Element, error) {
	parts := strings.SplitN(spec, ":", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("bad dataset spec %q (want distribution:count)", spec)
	}
	n, err := strconv.Atoi(parts[1])
	if err != nil || n < 0 {
		return nil, fmt.Errorf("bad count in spec %q", spec)
	}
	switch parts[0] {
	case "uniform":
		return transformers.GenerateUniform(n, seed), nil
	case "dense":
		return transformers.GenerateDenseCluster(n, seed), nil
	case "uniformcluster":
		return transformers.GenerateUniformCluster(n, seed), nil
	case "massive":
		return transformers.GenerateMassiveCluster(n, seed), nil
	case "axons":
		return transformers.GenerateAxons(n, seed), nil
	case "dendrites":
		return transformers.GenerateDendrites(n, seed), nil
	default:
		return nil, fmt.Errorf("unknown distribution %q", parts[0])
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
