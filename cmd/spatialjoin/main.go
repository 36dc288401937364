// Command spatialjoin runs one spatial join end to end from the command
// line: generate (or load) two datasets, index them with the chosen
// algorithm, join, and print the cost report.
//
// Usage:
//
//	spatialjoin -algo transformers -a uniform:100000 -b massive:100000
//	spatialjoin -algo pbsm -a dense:50000 -b uniformcluster:50000 -v
//	spatialjoin -algo all -a axons:60000 -b dendrites:40000
//	spatialjoin -algo shard-transformers -shard-tiles 8 -a dense:200000 -b uniformcluster:200000
//	spatialjoin -algo transformers -stream -a massive:100000 -b massive:100000 | wc -l
//
// Dataset specs are distribution:count with distributions uniform, dense
// (DenseCluster), uniformcluster, massive (MassiveCluster), axons,
// dendrites.
//
// The TRANSFORMERS join uses every core by default; -parallel 1 reproduces
// the paper's single-threaded execution (identical pair sets either way).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"repro/transformers"
)

func main() {
	algo := flag.String("algo", "transformers",
		"engine: "+strings.Join(transformers.EngineNames(), ", ")+", or all (every registered engine)")
	specA := flag.String("a", "uniform:100000", "dataset A spec (distribution:count)")
	specB := flag.String("b", "uniform:100000", "dataset B spec (distribution:count)")
	seedA := flag.Int64("seed-a", 1, "dataset A seed")
	seedB := flag.Int64("seed-b", 2, "dataset B seed")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"TRANSFORMERS join worker count (1 = paper-faithful single thread)")
	shardTiles := flag.Int("shard-tiles", 0,
		"tile count K for the shard-* engines (0 = statistics-driven)")
	stream := flag.Bool("stream", false,
		"stream result pairs as NDJSON on stdout as the join finds them (cost report goes to stderr)")
	verbose := flag.Bool("v", false, "print per-phase I/O detail")
	flag.Parse()

	a, err := generate(*specA, *seedA)
	fatalIf(err)
	b, err := generate(*specB, *seedB)
	fatalIf(err)
	if *stream {
		// Streaming mode: pairs on stdout (pipe-friendly NDJSON), report on
		// stderr, memory bounded regardless of result size.
		streamJoin(*algo, a, b, transformers.RunOptions{
			ShardTiles: *shardTiles,
			Join:       transformers.JoinOptions{Parallelism: *parallel},
		})
		return
	}
	fmt.Printf("dataset A: %s (%d elements), dataset B: %s (%d elements)\n\n",
		*specA, len(a), *specB, len(b))

	algos := []transformers.Algorithm{transformers.Algorithm(*algo)}
	if *algo == "all" {
		algos = algos[:0]
		for _, name := range transformers.EngineNames() {
			algos = append(algos, transformers.Algorithm(name))
		}
	}
	for _, alg := range algos {
		if *algo == "all" && alg == transformers.AlgoNaive && float64(len(a))*float64(len(b)) > 1e9 {
			fmt.Printf("%-18s skipped (|A|·|B| too large for the nested loop; run -algo naive explicitly)\n", alg)
			continue
		}
		rep, err := transformers.Run(alg,
			append([]transformers.Element(nil), a...),
			append([]transformers.Element(nil), b...),
			transformers.RunOptions{
				ShardTiles: *shardTiles,
				Join:       transformers.JoinOptions{Parallelism: *parallel},
			})
		fatalIf(err)
		fmt.Printf("%-18s results=%-10d index: %-10v join: %v (in-mem %v + modeled I/O %v)\n",
			alg, rep.Results, rep.BuildTotal.Round(1e5), rep.JoinTotal.Round(1e5),
			rep.JoinWall.Round(1e5), rep.JoinIOTime.Round(1e5))
		if sh := rep.Shard; sh != nil {
			fmt.Printf("                   shard: inner=%s K=%d (ran %d) workers=%d replicated=%d+%d dedup-drops=%d util=%.0f%%\n",
				sh.Inner, sh.Tiles, sh.TilesRun, sh.Workers, sh.ReplicatedA, sh.ReplicatedB,
				sh.DedupDropped, sh.UtilizationPct)
		}
		if *verbose {
			fmt.Printf("                   comparisons=%d meta=%d\n", rep.Comparisons, rep.MetaComps)
			fmt.Printf("                   build IO: %v\n", rep.BuildIO)
			fmt.Printf("                   join  IO: %v\n", rep.JoinIO)
			if alg == transformers.AlgoTransformers {
				ts := rep.Transformers
				fmt.Printf("                   transforms: %d role switches, %d node splits, %d unit splits; walk steps %d\n",
					ts.RoleSwitches, ts.NodeSplits, ts.UnitSplits, ts.WalkSteps)
			}
		}
	}
}

// streamJoin runs one engine's streaming path, writing each pair as one
// NDJSON line on stdout the moment the join finds it.
func streamJoin(algo string, a, b []transformers.Element, opt transformers.RunOptions) {
	if algo == "all" {
		fatalIf(fmt.Errorf("-stream needs one engine, not \"all\""))
	}
	bw := bufio.NewWriterSize(os.Stdout, 64<<10)
	rep, err := transformers.RunStream(context.Background(), transformers.Algorithm(algo), a, b, opt,
		func(p transformers.Pair) error {
			_, err := bw.Write(append(p.AppendJSON(bw.AvailableBuffer()), '\n'))
			return err
		})
	if ferr := bw.Flush(); err == nil {
		err = ferr
	}
	fatalIf(err)
	fmt.Fprintf(os.Stderr, "%-18s results=%-10d index: %-10v join: %v (in-mem %v + modeled I/O %v)\n",
		algo, rep.Results, rep.BuildTotal.Round(1e5), rep.JoinTotal.Round(1e5),
		rep.JoinWall.Round(1e5), rep.JoinIOTime.Round(1e5))
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
