package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"testing/iotest"
	"time"
)

// TestSmoke runs all four workloads end to end at 1/50 size with 1 s windows
// against a daemon built from the tree, traced phase included, and checks
// what every full run relies on: each named metric is present, finite and
// unit-tagged, answers are correct, spans are well nested.
func TestSmoke(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config{
		root: root, buildDir: t.TempDir(), seed: 7, scale: 0.02,
		window: time.Second, period: 200 * time.Millisecond, setups: 1,
	}
	if cfg.daemonBin, err = buildDaemon(cfg.root, cfg.buildDir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stopAllDaemons)
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res, err := runWorkload(context.Background(), cfg, wl, true)
			if err != nil {
				t.Fatalf("run: %v (notes %v)", err, res.Notes)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d notes=%v", res.Correct, res.Attempted, res.Failed, res.Notes)
			}
			for _, d := range metrics {
				m, ok := res.Metrics[d.Name]
				if !d.appliesTo(wl.Name) {
					if ok {
						t.Errorf("metric %s is not defined for %s but was reported", d.Name, wl.Name)
					}
					continue
				}
				switch d.Name {
				case "loadgen.late_p95_ms":
					if !wl.Appends {
						continue
					}
				case "inmem.flip_join_ms", "inmem.flip_tests_per_result":
					if wl.Name == "selective" {
						continue
					}
				}
				if !ok {
					t.Errorf("metric %s missing", d.Name)
					continue
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("metric %s = %v, want a finite value", d.Name, m.Value)
				}
				if m.Unit != d.Unit || m.Unit == "" {
					t.Errorf("metric %s has unit %q, want %q", d.Name, m.Unit, d.Unit)
				}
			}
			for _, name := range []string{"setup_s", "join_p50_ms", "joins_per_s", "cpu_s_per_join", "peak_rss_mb", "server.service.total_ms", "inmem.partition_ms", "core.build_ms"} {
				if res.Metrics[name].Value <= 0 {
					t.Errorf("metric %s = %v, want > 0", name, res.Metrics[name].Value)
				}
			}
			if wl.Appends && res.Metrics["append_p50_ms"].Value <= 0 {
				t.Errorf("append_p50_ms = %v on the append workload", res.Metrics["append_p50_ms"].Value)
			}
			if len(res.spans) == 0 {
				t.Fatal("traced phase recorded no spans")
			}
			self, err := selfTimes(res.spans)
			if err != nil {
				t.Fatalf("spans are not well nested: %v", err)
			}
			for id, d := range self {
				if d < 0 {
					t.Errorf("span %d has negative self time %v", id, d)
				}
			}
			// The driver's two lines together carry every metric once.
			if e2e, layers := pick(res, gated(true)), pick(res, gated(false)); len(e2e)+len(layers) != len(metrics) || len(e2e) == 0 {
				t.Errorf("driver lines carry %d + %d metrics, the table has %d", len(e2e), len(layers), len(metrics))
			}
		})
	}
}

// TestPoolsSitOnTheirSides pins what the neuroscience workloads assume: on a
// full-size sample of mainPool inmem leaves z out of its split/sweep choice,
// on flipPool's it does not. A change to the generators or to inmem's ranking
// that moves either fails here before it moves the baseline.
func TestPoolsSitOnTheirSides(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, dist := range []float64{15, 25} {
			a, b, _ := mainPool.sample(seed, 1, 0)
			if _, _, third, err := inmemThirdDim(context.Background(), a, b, dist); err != nil || third != pinnedThirdDim {
				t.Errorf("mainPool seed %d distance %v: inmem leaves out dimension %d (%v), want %d", seed, dist, third, err, pinnedThirdDim)
			}
			a, b, _ = flipPool.sample(seed, 1, 0)
			if _, _, third, err := inmemThirdDim(context.Background(), a, b, dist); err != nil || third == pinnedThirdDim {
				t.Errorf("flipPool seed %d distance %v: inmem leaves out dimension %d (%v), the same side as mainPool", seed, dist, third, err)
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := make([]float64, minP95Samples-1)
	for i := range samples {
		samples[i] = float64(i)
	}
	if _, err := percentile(samples, 0.95); err == nil {
		t.Errorf("p95 of %d samples was accepted; it has fewer than ten samples beyond it", len(samples))
	}
	samples = append(samples, float64(len(samples)))
	got, err := percentile(samples, 0.95)
	if err != nil || got != 189 {
		t.Errorf("p95 of 0..199 = %v, %v; want 189", got, err)
	}
	if p, _ := highestPercentile(samples[:120]); p != 0.90 {
		t.Errorf("120 samples support p%.0f, want p90", p*100)
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples was accepted")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; Python gives 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(s-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestSelfTimes(t *testing.T) {
	ok := []Span{
		{ID: 1, Name: "iteration", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, Name: "b", StartNS: 40, EndNS: 90},
	}
	self, err := selfTimes(ok)
	if err != nil || self[1] != 20 || self[2] != 30 {
		t.Errorf("selfTimes = %v, %v; want root 20ns, a 30ns", self, err)
	}
	for name, bad := range map[string][]Span{
		"unclosed":        {{ID: 1, Name: "x", StartNS: 5, EndNS: -1}},
		"outside parent":  {ok[0], {ID: 2, Parent: 1, Name: "a", StartNS: 50, EndNS: 150}},
		"overlap":         {ok[0], ok[1], {ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 60}},
		"unknown parent":  {{ID: 2, Parent: 9, Name: "a", StartNS: 1, EndNS: 2}},
		"child precedes":  {ok[0], {ID: 2, Parent: 1, Name: "a", StartNS: -5, EndNS: 10}},
		"child goes back": {{ID: 1, Name: "x", StartNS: 9, EndNS: 3}},
	} {
		if _, err := selfTimes(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestScanJoin feeds scanJoin both response forms in awkward chunkings and
// requires the counts a full decode gives.
func TestScanJoin(t *testing.T) {
	for _, n := range []int{0, 1, 3, 700} {
		var stream, collected bytes.Buffer
		collected.WriteString(`{"a":"x","b":"y","request_id":"r","cached":false,"summary":{"algorithm":"inmem","results":` + fmt.Sprint(n) + `,"delta":{"pairs":3}}`)
		for i := 0; i < n; i++ {
			fmt.Fprintf(&stream, "{\"a\":%d,\"b\":%d}\n", i, i*7)
			if i == 0 {
				collected.WriteString(`,"pairs":[`)
			} else {
				collected.WriteString(",")
			}
			fmt.Fprintf(&collected, `{"a":%d,"b":%d}`, i, i*7)
		}
		if n > 0 {
			collected.WriteString("]")
		}
		collected.WriteString("}\n")
		fmt.Fprintf(&stream, "{\"summary\":{\"algorithm\":\"inmem\",\"results\":%d},\"request_id\":\"r\",\"cached\":true,\"aborted\":false,\"pairs\":%d}\n", n, n)

		for _, isStream := range []bool{true, false} {
			body := collected.Bytes()
			if isStream {
				body = stream.Bytes()
			}
			want, _, err := decodeJoin(bytes.NewReader(body), isStream)
			if err != nil || len(want) != n {
				t.Fatalf("n=%d stream=%v: decodeJoin = %d pairs, %v", n, isStream, len(want), err)
			}
			for _, bufSize := range []int{1, 7, 64, 1 << 16} {
				s, err := scanJoin(iotest.DataErrReader(bytes.NewReader(body)), isStream, make([]byte, bufSize), time.Now())
				if err == nil {
					err = s.check(isStream, true)
				}
				if err != nil || s.pairs != n || s.bytes != int64(len(body)) || s.doc.Summary.Algorithm != "inmem" {
					t.Errorf("n=%d stream=%v buf=%d: scanJoin = %d pairs, %d bytes, %v", n, isStream, bufSize, s.pairs, s.bytes, err)
				}
			}
		}
		// A stream cut short, or one whose trailer miscounts, must not pass.
		cut := stream.Bytes()[:stream.Len()-5]
		if s, err := scanJoin(bytes.NewReader(cut), true, make([]byte, 64), time.Now()); err == nil && s.check(true, true) == nil {
			t.Errorf("n=%d: truncated stream accepted", n)
		}
		lying := bytes.Replace(stream.Bytes(), []byte(fmt.Sprintf(`"pairs":%d}`, n)), []byte(fmt.Sprintf(`"pairs":%d}`, n+1)), 1)
		if s, err := scanJoin(bytes.NewReader(lying), true, make([]byte, 64), time.Now()); err == nil && s.check(true, true) == nil {
			t.Errorf("n=%d: stream with a miscounting trailer accepted", n)
		}
	}
}

// TestStaleDaemonIsRejected: something else answering on the port — healthy,
// accepting uploads, but not listing this run's nonce dataset — must fail
// the ownership proof instead of silently serving the run.
func TestStaleDaemonIsRejected(t *testing.T) {
	stale := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/datasets":
			w.WriteHeader(http.StatusCreated)
			fmt.Fprint(w, `{}`)
		case "/stats":
			fmt.Fprint(w, `{"datasets":[{"name":"nonce-of-an-earlier-run","elements":1}]}`)
		default:
			fmt.Fprint(w, `{"status":"ok"}`)
		}
	}))
	defer stale.Close()
	d := &daemon{base: stale.URL, nonce: "nonce-0123456789abcdef"}
	d.hc = newHTTPClient(&d.dials)
	if err := d.proveOwnership(context.Background()); err == nil {
		t.Error("a daemon that does not list the run's nonce dataset passed the ownership proof")
	}
}

func TestShapeAccept(t *testing.T) {
	fixed := &shape{want: 10}
	if fixed.accept(10) != nil || fixed.accept(11) == nil {
		t.Error("fixed shape must accept exactly the oracle's count")
	}
	grow := &shape{growing: true, min: 10, max: 30}
	for _, step := range []struct {
		n  int
		ok bool
	}{{10, true}, {20, true}, {19, false}, {20, true}, {31, false}, {30, true}} {
		if err := grow.accept(step.n); (err == nil) != step.ok {
			t.Errorf("growing shape: accept(%d) = %v, want ok=%v", step.n, err, step.ok)
		}
	}
}

func report(runs map[string][]float64) resultFile {
	w := workloadReport{Name: "selective", Correct: true, EndToEnd: map[string]e2eValue{}}
	for name, v := range runs {
		w.EndToEnd[name] = e2eValue{Metric: Metric{Value: median(sortedCopy(v))}, Runs: v}
	}
	return resultFile{Schema: resultSchema, Workloads: []workloadReport{w}}
}

// TestDiff uses setup_s (gated, bound 25%) and join_p50_ms (demoted).
func TestDiff(t *testing.T) {
	if d := defOf["setup_s"]; !d.Gate || d.Bound != 0.25 {
		t.Fatalf("setup_s is %+v; this test assumes it is gated at 25%%", d)
	}
	if defOf["join_p50_ms"].Gate {
		t.Fatal("join_p50_ms is gated; this test assumes it is demoted")
	}
	steady := []float64{100, 101, 99, 100, 102}
	verdict := func(a, b resultFile, metric string) (int, string) {
		t.Helper()
		n, rows, err := diffResults(a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if r.Metric == metric {
				return n, r.Verdict
			}
		}
		return n, ""
	}
	base := report(map[string][]float64{"setup_s": steady, "join_p50_ms": steady})
	if n, v := verdict(base, base, "setup_s"); n != 0 || v != "ok" {
		t.Errorf("same file: %d regressions, verdict %q", n, v)
	}
	slower := report(map[string][]float64{"setup_s": {130, 131, 129, 130, 132}, "join_p50_ms": {130, 131, 129, 130, 132}})
	if n, v := verdict(base, slower, "setup_s"); n != 1 || v != "REGRESSION" {
		t.Errorf("30%% slower on a gated and a demoted metric: %d regressions, verdict %q", n, v)
	}
	if _, v := verdict(base, slower, "join_p50_ms"); v != "not gated (beyond bound)" {
		t.Errorf("demoted metric 30%% slower: verdict %q", v)
	}
	within := report(map[string][]float64{"setup_s": {115, 116, 114, 115, 117}, "join_p50_ms": steady})
	if n, v := verdict(base, within, "setup_s"); n != 0 || v != "ok" {
		t.Errorf("15%% slower is inside the bound: %d regressions, verdict %q", n, v)
	}
	if n, _ := verdict(slower, base, "setup_s"); n != 0 {
		t.Errorf("an improvement counted as %d regressions", n)
	}
	noisy := report(map[string][]float64{"setup_s": {80, 160, 100, 150, 132}})
	if n, v := verdict(base, noisy, "setup_s"); n != 0 || v != "unresolved (spread exceeds bound)" {
		t.Errorf("spread beyond the bound: %d regressions, verdict %q, want unresolved", n, v)
	}
	// Too few runs to tell noise from change: refused, not judged.
	thin := report(map[string][]float64{"setup_s": {130, 131, 129}})
	if _, _, err := diffResults(base, thin); err == nil {
		t.Error("a side with three runs was judged")
	}
	wrong := base
	wrong.Workloads = []workloadReport{base.Workloads[0]}
	wrong.Workloads[0].Correct = false
	if n, _, _ := diffResults(base, wrong); n == 0 {
		t.Error("wrong answers in b are not a regression")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, the driver's contract, in step
// with the metric and workload tables the program reports from.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var doc struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name {
			t.Errorf("workload %d is %q, the program's is %q", i, doc.Workloads[i].Name, w.Name)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics listed, the program reports %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (bounded && g.Bound != d.Bound) {
				t.Errorf("%s[%d] = %+v, the program's table says %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, gated(true), true)
	check("per_layer", doc.PerLayer, gated(false), false)
	if time.Duration(doc.RunSeconds)*time.Second <= appendPeriod {
		t.Errorf("run_seconds %d leaves no room for an append", doc.RunSeconds)
	}
}
