// Command benchmark is the repository's benchmark spine: it measures a live
// spatialjoind end to end over HTTP and, in a separate traced phase, the
// program's layers one by one. See README.md.
//
//	go run -C benchmark . -seed 1                 all four workloads, result.json + trace.json
//	go run -C benchmark . -seed 1 -reps 5         the same five times over (seeds 1..5), for diff
//	go run -C benchmark . diff a.json b.json      compare two result files against the bounds
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one run, one JSON line (BENCHMARK.json's command)
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// config is one invocation's settings. Only seed and window are flags; the
// rest is fixed in benchMain, and the smoke test shrinks it.
type config struct {
	root     string // repository root: where ./cmd/spatialjoind is built from
	buildDir string // daemon binary and logs
	seed     int64
	scale    float64 // dataset size multiplier
	window   time.Duration
	period   time.Duration // append writer's period
	setups   int           // set-ups per run; setup_s is their median

	daemonBin string
}

// runResult is one workload run.
type runResult struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Valid     bool              `json:"valid"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	Notes     []string          `json:"notes,omitempty"`
	spans     []Span
}

// set records a metric of the table; one the table does not define for this
// workload is dropped.
func (r *runResult) set(name string, v float64) {
	d, ok := defOf[name]
	if !ok {
		panic("benchmark: metric " + name + " is not in the metric table")
	}
	if d.appliesTo(r.Workload) {
		r.Metrics[name] = Metric{Value: v, Unit: d.Unit}
	}
}

func (r *runResult) invalid(format string, args ...any) {
	r.Valid = false
	r.Notes = append(r.Notes, "INVALID: "+fmt.Sprintf(format, args...))
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

// setup starts a fresh default-flag daemon and uploads both datasets; the
// returned duration runs from process start to /healthz ok after the last
// upload, and buildMS sums the index builds the upload responses report.
func setup(ctx context.Context, cfg config, wl workload, bodies [2][]byte) (d *daemon, took time.Duration, buildMS float64, err error) {
	t0 := time.Now()
	d, err = startDaemon(ctx, cfg.daemonBin, filepath.Join(cfg.buildDir, "spatialjoind-"+wl.Name+".log"))
	if err != nil {
		return nil, 0, 0, err
	}
	for _, body := range bodies {
		var info struct {
			BuildMS float64 `json:"build_ms"`
		}
		out, err := postJSON(ctx, d.hc, d.base+"/datasets", nil, body, http.StatusCreated)
		if err == nil {
			err = json.Unmarshal(out, &info)
		}
		if err != nil {
			d.Stop()
			return nil, 0, 0, fmt.Errorf("upload: %w", err)
		}
		buildMS += info.BuildMS
	}
	if err := d.healthy(ctx); err != nil {
		d.Stop()
		return nil, 0, 0, err
	}
	return d, time.Since(t0), buildMS, nil
}

// runWorkload performs one run of wl: set-up, oracle-checked warm-up, the
// measured window with tracing off and, when trace is set, the in-process
// layer phase. A returned error means the run could not be completed or an
// answer was wrong; the result then has Correct false.
func runWorkload(ctx context.Context, cfg config, wl workload, trace bool) (*runResult, error) {
	res := &runResult{Workload: wl.Name, Seed: cfg.seed, Valid: true, Metrics: make(map[string]Metric)}
	nAppends := 0
	if wl.Appends {
		nAppends = appendCount(cfg.window, cfg.period)
	}
	in := wl.generate(cfg.seed, cfg.scale, nAppends)
	appended := in.Stream[:nAppends*in.Batch]
	bodies := [2][]byte{datasetBody(in.NameA, in.A), datasetBody(in.NameB, in.B)}
	orc := newOracle(in.A, in.B, cfg.seed)

	// Which dimensions inmem stripes and sweeps decides its cost on the
	// neuroscience pair (see mainPool): report them, and say so when a pooled
	// sample has left the side every other number of this spine was taken on.
	split, sweep, third, err := inmemThirdDim(ctx, in.A, in.B, wl.LayerDistance)
	if err != nil {
		return res, err
	}
	res.set("inmem.split_dim", float64(split))
	res.set("inmem.sweep_dim", float64(sweep))
	if in.Pooled && third != pinnedThirdDim {
		res.invalid("inmem stripes dimension %d and sweeps %d on this sample, leaving out %d, not %d: its cost is not comparable with the baseline's", split, sweep, third, pinnedThirdDim)
	}

	// Set-up, several times; the last daemon serves the run.
	var d *daemon
	var setupS []float64
	var buildMS float64
	for i := 0; i < cfg.setups; i++ {
		if d != nil {
			d.Stop()
		}
		var took time.Duration
		var err error
		if d, took, buildMS, err = setup(ctx, cfg, wl, bodies); err != nil {
			return res, err
		}
		setupS = append(setupS, took.Seconds())
	}
	defer func() { d.Stop() }()
	res.set("setup_s", median(sortedCopy(setupS)))
	res.set("server.catalog.build_ms", buildMS)

	// Warm-up: one fully decoded response per request shape, checked
	// against pbsm and naive. It also builds the distance-expanded indexes
	// the transformers path keeps in the catalog.
	tgt := wl.target(d.hc, d.base)
	var shapes []*shape
	var finals []answer
	for _, dist := range wl.Distances {
		sh := &shape{distance: dist, body: wl.joinBody(in.NameA, in.NameB, dist)}
		// A summary-only shape is asked for its pairs this once, so the
		// oracle has something to compare.
		listing := wl
		listing.IncludePairs = !wl.Stream
		pairs, _, err := tgt.decoded(ctx, listing.joinBody(in.NameA, in.NameB, dist), nil)
		if err != nil {
			return res, fmt.Errorf("warm-up distance=%v: %w", dist, err)
		}
		want, err := orc.verify(ctx, dist, pairs)
		if err != nil {
			return res, fmt.Errorf("ORACLE MISMATCH: %w", err)
		}
		sh.want = want.Count
		if wl.Appends {
			final, err := orc.reference(ctx, dist, appended)
			if err != nil {
				return res, err
			}
			sh.growing, sh.min, sh.max = true, want.Count, final.Count
			finals = append(finals, final)
		}
		shapes = append(shapes, sh)
	}

	win, err := runWindow(ctx, wl, d, in, shapes, cfg.window, cfg.period)
	if err != nil {
		return res, err
	}
	res.Attempted, res.Failed = win.attempted, win.failed
	for _, f := range win.failures {
		res.Notes = append(res.Notes, "FAILED: "+f)
	}

	// append-replay: the final state must equal the oracle over the base
	// plus every appended batch, whatever merges are still running.
	if wl.Appends && len(win.appends) == nAppends {
		for i, sh := range shapes {
			pairs, _, err := tgt.decoded(ctx, sh.body, nil)
			if err != nil {
				return res, fmt.Errorf("final check distance=%v: %w", sh.distance, err)
			}
			if got := answerOf(pairs); got != finals[i] {
				return res, fmt.Errorf("ORACLE MISMATCH: final state distance=%v: daemon %d pairs (checksum %016x), pbsm over base + %d appended %d pairs (checksum %016x)",
					sh.distance, got.Count, got.Checksum, len(appended), finals[i].Count, finals[i].Checksum)
			}
		}
	}
	d.Stop()

	chosen := summarize(res, wl, win, d.dials.Load())
	res.Correct = res.Failed == 0
	if !trace || !res.Correct {
		return res, nil
	}

	rec := newRecorder()
	lr := &layerRun{wl: wl, in: in, seed: cfg.seed, scale: cfg.scale, rec: rec, chosen: chosen}
	if err := lr.run(ctx); err != nil {
		return res, fmt.Errorf("traced phase: %w", err)
	}
	for name, v := range lr.out {
		res.set(name, v)
	}
	res.Notes = append(res.Notes, lr.notes...)
	res.spans = rec.snapshot()
	if _, err := selfTimes(res.spans); err != nil {
		return res, fmt.Errorf("traced phase: %w", err)
	}
	return res, nil
}

// summarize turns a window into the client-view metrics and the counts read
// from /stats, marks the run invalid where the harness's own rules say so,
// and returns the engine most joins resolved to.
func summarize(res *runResult, wl workload, win windowResult, conns int64) string {
	secs := win.elapsed.Seconds()
	n := len(win.joins)
	lat := make([]float64, n)
	first := make([]float64, n)
	pairs := 0
	engines := map[string]int{}
	for i, j := range win.joins {
		lat[i] = ms(j.latency)
		first[i] = ms(j.firstByte)
		pairs += j.pairs
		engines[j.engine]++
	}
	sort.Float64s(lat)
	sort.Float64s(first)
	res.set("join_p50_ms", median(lat))
	if p95, err := percentile(lat, 0.95); err == nil {
		res.set("join_p95_ms", p95)
	} else {
		p, v := highestPercentile(lat)
		res.set("join_p95_ms", v)
		res.invalid("%d joins completed, %d needed for p95: join_p95_ms holds p%.0f", n, minP95Samples, p*100)
	}
	res.set("join_samples", float64(n))
	res.set("joins_per_s", float64(n)/secs)
	res.set("pairs_per_s", float64(pairs)/secs)
	res.set("pairs_per_join", ratio(float64(pairs), float64(n)))
	res.set("first_pair_p50_ms", median(first))
	res.set("cpu_s_per_join", ratio(win.daemonCPU.Seconds(), float64(n)))
	res.set("peak_rss_mb", win.peakRSSMB)
	res.set("failed_share", ratio(float64(win.failed), float64(win.attempted)))

	res.set("daemon.cpu_util", win.daemonCPU.Seconds()/secs/float64(runtime.NumCPU()))
	share := win.selfCPU.Seconds() / secs
	res.set("loadgen.cpu_share", share)
	if share > 0.5 {
		res.invalid("load generator used %.2f core-seconds per second", share)
	}
	res.set("loadgen.conns", float64(conns))
	if conns > connections {
		res.invalid("load generator opened %d connections, %d allowed", conns, connections)
	}
	if len(win.appends) > 0 {
		al := make([]float64, len(win.appends))
		late := make([]float64, len(win.appends))
		for i, a := range win.appends {
			al[i] = ms(a.latency)
			late[i] = ms(a.late)
		}
		sort.Float64s(al)
		sort.Float64s(late)
		res.set("append_p50_ms", median(al))
		// Too few appends for a p95 with ten samples beyond it: the latest
		// one stands in, which only errs towards calling a run invalid.
		lateP95, err := percentile(late, 0.95)
		if err != nil {
			lateP95 = late[len(late)-1]
		}
		res.set("loadgen.late_p95_ms", lateP95)
		if lateP95 > 200 {
			res.invalid("append schedule ran %.0f ms late", lateP95)
		}
	}

	b, a := win.before, win.after
	res.set("server.pool.admitted", float64(a.admitted()-b.admitted()))
	res.set("server.pool.shed", float64(a.Pool.Shed-b.Pool.Shed))
	hits, misses := float64(a.Cache.Hits-b.Cache.Hits), float64(a.Cache.Misses-b.Cache.Misses)
	res.set("server.cache.hit_ratio", ratio(hits, hits+misses))
	res.set("server.catalog.index_hit_ratio", ratio(float64(a.Catalog.IndexHits-b.Catalog.IndexHits), float64(a.Catalog.Acquires-b.Catalog.Acquires)))
	res.set("server.catalog.merges", float64(a.Catalog.Merges-b.Catalog.Merges))

	chosen, most := "", 0
	other := n
	for name, c := range engines {
		if c > most || (c == most && name < chosen) {
			chosen, most = name, c
		}
	}
	for _, name := range []string{"inmem", "transformers"} {
		res.set("planner.share_"+name, ratio(float64(engines[name]), float64(n)))
		other -= engines[name]
	}
	res.set("planner.share_other", ratio(float64(other), float64(n)))
	return chosen
}

// driverLine is the one JSON object a driver run prints last on stdout.
type driverLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// pick returns the metrics of defs from r, zero where a metric does not
// apply to the workload.
func pick(r *runResult, defs []metricDef) map[string]Metric {
	out := make(map[string]Metric, len(defs))
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m = Metric{Unit: d.Unit}
		}
		out[d.Name] = m
	}
	return out
}

func printMetrics(r *runResult) {
	logf("== %s (seed %d): correct=%v valid=%v attempted=%d failed=%d", r.Workload, r.Seed, r.Correct, r.Valid, r.Attempted, r.Failed)
	for _, d := range metrics {
		if m, ok := r.Metrics[d.Name]; ok {
			logf("  %-34s %14.4f %s", d.Name, m.Value, m.Unit)
		}
	}
	for _, n := range r.Notes {
		logf("  note: %s", n)
	}
}

// findRoot walks up from the working directory to the repository root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "spatialjoind", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/spatialjoind at or above the working directory: the benchmark runs inside the repository")
		}
		dir = parent
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(diffMain(os.Args[2:]))
	}
	os.Exit(benchMain())
}

func benchMain() int {
	workloadName := flag.String("workload", "", "run only this workload and print one JSON result line (the BENCHMARK.json contract)")
	traceFlag := flag.Int("trace", 0, "with -workload: 1 adds the traced layer phase and prints the per-layer metrics, 0 prints the end-to-end ones")
	reps := flag.Int("reps", 1, "full run: repetitions per workload, seeds seed, seed+1, ...; diff needs 4 or more")
	seed := flag.Int64("seed", 1, "workload seed; the daemon only ever sees the generated elements")
	seconds := flag.Int("seconds", 15, "measured window per workload, in whole seconds")
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		logf("benchmark: -seconds must be at least 1, and there are no positional arguments besides `diff a.json b.json`")
		return 2
	}
	root, err := findRoot()
	if err != nil {
		logf("benchmark: %v", err)
		return 2
	}
	cfg := config{
		root: root, buildDir: filepath.Join(root, ".bench_build"),
		seed: *seed, scale: 1, window: time.Duration(*seconds) * time.Second,
		period: appendPeriod, setups: 5,
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	// No exit path may leave a daemon behind: not a panic, not a signal.
	defer func() {
		if p := recover(); p != nil {
			stopAllDaemons()
			panic(p)
		}
	}()
	go func() {
		<-ctx.Done()
		stopAllDaemons()
	}()

	if cfg.daemonBin, err = buildDaemon(cfg.root, cfg.buildDir); err != nil {
		logf("benchmark: %v", err)
		return 2
	}

	if *workloadName != "" {
		wl, ok := workloadByName(*workloadName)
		if !ok {
			logf("benchmark: unknown workload %q", *workloadName)
			return 2
		}
		trace := *traceFlag != 0
		res, err := runWorkload(ctx, cfg, wl, trace)
		stopAllDaemons()
		if ctx.Err() != nil {
			logf("benchmark: interrupted")
			return 130
		}
		printMetrics(res)
		if err != nil {
			logf("benchmark: %s: %v", wl.Name, err)
			res.Correct = false
		}
		if !res.Valid {
			logf("benchmark: %s: run is INVALID (see notes)", wl.Name)
		}
		attempted := res.Attempted
		if attempted < 1 {
			attempted = 1
		}
		line, _ := json.Marshal(driverLine{Correct: res.Correct, Attempted: attempted, Failed: res.Failed, Metrics: pick(res, gated(!trace))})
		fmt.Println(string(line))
		if !res.Correct {
			return 1
		}
		return 0
	}
	return fullRun(ctx, cfg, *reps)
}
