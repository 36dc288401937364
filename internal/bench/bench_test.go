package bench

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// tinyScale keeps smoke tests fast: ~1/20000 of the paper's sizes.
const tinyScale = 0.00005

func TestEveryExperimentRunsEndToEnd(t *testing.T) {
	// The registry is the paper's eleven tables and figures plus the
	// cross-engine comparison the planner constants cite. A new experiment
	// has to argue its way into this list: what the serving benchmark
	// (benchmark/) or a `go test -bench` cannot answer.
	want := []string{
		"fig10", "fig11-index", "fig11-join", "fig11-tests",
		"fig12-index", "fig12-join", "fig12-tests", "tab1",
		"fig13-left", "fig13-right", "fig14", "engines",
	}
	var got []string
	for _, e := range Experiments() {
		got = append(got, e.ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("experiment registry = %v, want exactly %v", got, want)
	}
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			cfg := Config{Scale: tinyScale, Out: &buf, Seed: 7}.normalize()
			if err := e.Run(cfg); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) == 0 {
				t.Fatalf("%s produced no output", e.ID)
			}
			// Every experiment prints a header row and at least one data row.
			if strings.Count(out, "\n") < 3 {
				t.Fatalf("%s output too short:\n%s", e.ID, out)
			}
		})
	}
}

func TestRunByIDUnknown(t *testing.T) {
	var buf bytes.Buffer
	err := RunByID("nope", Config{Scale: tinyScale, Out: &buf})
	if err == nil {
		t.Fatal("unknown id should fail")
	}
	if !strings.Contains(err.Error(), "fig10") {
		t.Fatalf("error should list known ids: %v", err)
	}
}

func TestRunByIDSingle(t *testing.T) {
	var buf bytes.Buffer
	if err := RunByID("tab1", Config{Scale: tinyScale, Out: &buf, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Table I", "transformers", "pbsm", "rtree", "completed"} {
		if !strings.Contains(out, want) {
			t.Fatalf("tab1 output missing %q:\n%s", want, out)
		}
	}
}

func TestScaledFloors(t *testing.T) {
	cfg := Config{Scale: 1e-12}.normalize()
	if got := cfg.scaled(1_000_000); got != 16 {
		t.Fatalf("scaled floor = %d, want 16", got)
	}
	cfg = Config{Scale: 0.5}.normalize()
	if got := cfg.scaled(1000); got != 500 {
		t.Fatalf("scaled(1000, 0.5) = %d", got)
	}
}

func TestTableFormatting(t *testing.T) {
	var buf bytes.Buffer
	tb := &table{header: []string{"col", "verylongheader"}}
	tb.addRow("a", "b")
	tb.addRow("longervalue", "c")
	tb.write(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table lines = %d", len(lines))
	}
	// Columns must align: every line has the same prefix width before col 2.
	idx := strings.Index(lines[0], "verylongheader")
	if strings.Index(lines[2], "b") != idx {
		t.Fatalf("misaligned table:\n%s", buf.String())
	}
}

func TestFormatters(t *testing.T) {
	if got := count(532); got != "532" {
		t.Fatalf("count(532) = %s", got)
	}
	if got := count(15_300); got != "15.3K" {
		t.Fatalf("count(15300) = %s", got)
	}
	if got := count(2_500_000); got != "2.50M" {
		t.Fatalf("count = %s", got)
	}
	if got := count(3_100_000_000); got != "3.10B" {
		t.Fatalf("count = %s", got)
	}
	if got := dur(1500 * 1000); got != "1.5ms" { // 1.5ms in ns
		t.Fatalf("dur = %s", got)
	}
}

func TestFig10PairsShape(t *testing.T) {
	cfg := Config{Scale: 0.001}.normalize()
	pairs := fig10Pairs(cfg)
	if len(pairs) != 9 {
		t.Fatalf("expected 9 pairs, got %d", len(pairs))
	}
	// First pair: A sparse, B dense at 1000x.
	if pairs[0].nA >= pairs[0].nB {
		t.Fatalf("pair 0 should be sparse A: %+v", pairs[0])
	}
	// Middle pair: 1x.
	mid := pairs[4]
	if mid.ratio != 1 || mid.nA != mid.nB {
		t.Fatalf("middle pair should be 1x symmetric: %+v", mid)
	}
	// Last pair: mirrored, A dense.
	last := pairs[8]
	if last.nA <= last.nB {
		t.Fatalf("pair 8 should be dense A: %+v", last)
	}
}

func TestSampleSinkReceivesSamples(t *testing.T) {
	var buf bytes.Buffer
	var samples []Sample
	cfg := Config{
		Scale: tinyScale,
		Out:   &buf,
		Seed:  5,
		Sink:  func(s Sample) { samples = append(samples, s) },
	}
	if err := RunByID("tab1", cfg); err != nil {
		t.Fatal(err)
	}
	// tab1 runs 3 sizes x 3 algorithms.
	if len(samples) != 9 {
		t.Fatalf("sink received %d samples, want 9", len(samples))
	}
	seenAlgo := map[string]bool{}
	for _, s := range samples {
		if s.Experiment != "tab1" {
			t.Fatalf("sample carries experiment %q", s.Experiment)
		}
		if s.JoinTotalMS < s.JoinIOTimeMS {
			t.Fatalf("join total %v < IO time %v", s.JoinTotalMS, s.JoinIOTimeMS)
		}
		if s.Reads == 0 {
			t.Fatalf("sample without I/O: %+v", s)
		}
		seenAlgo[s.Algorithm] = true
	}
	for _, want := range []string{"transformers", "pbsm", "rtree"} {
		if !seenAlgo[want] {
			t.Fatalf("no sample for %s (saw %v)", want, seenAlgo)
		}
	}
}
