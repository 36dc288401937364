package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceSpanTree(t *testing.T) {
	tr := New("req-1")
	ctx := NewContext(context.Background(), tr)
	if !Enabled(ctx) {
		t.Fatal("Enabled should be true with a trace attached")
	}

	ctx1, plan := Start(ctx, "plan")
	_ = ctx1
	time.Sleep(2 * time.Millisecond)
	plan.Add("candidates", 4)
	plan.End()

	ctx2, exec := Start(ctx, "execute")
	_, tile := Start(ctx2, "tile-0")
	tile.Add("pairs", 10)
	tile.End()
	exec.Record("stream-emit", 3*time.Millisecond).Add("flushes", 2)
	exec.End()
	tr.Add("pairs", 10)

	dto := tr.Finish()
	if dto.RequestID != "req-1" {
		t.Fatalf("request id = %q", dto.RequestID)
	}
	if len(dto.Spans) != 2 {
		t.Fatalf("want 2 top-level spans, got %d (%v)", len(dto.Spans), dto.SpanNames())
	}
	if got := dto.Find("plan"); got == nil || got.Counters["candidates"] != 4 {
		t.Fatalf("plan span wrong: %+v", got)
	}
	if got := dto.Find("tile-0"); got == nil {
		t.Fatal("tile-0 should nest under execute")
	} else if got.Counters["pairs"] != 10 {
		t.Fatalf("tile counters: %+v", got.Counters)
	}
	if em := dto.Find("stream-emit"); em == nil || em.DurMS < 2.5 || em.Counters["flushes"] != 2 {
		t.Fatalf("stream-emit record wrong: %+v", em)
	}
	if dto.Counters["pairs"] != 10 {
		t.Fatalf("trace counters: %+v", dto.Counters)
	}
	if dto.Find("plan").DurMS < 1.5 {
		t.Fatalf("plan duration too small: %v", dto.Find("plan").DurMS)
	}
	// The DTO must survive JSON round-trips (it is embedded in responses).
	b, err := json.Marshal(dto)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceDTO
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Find("tile-0") == nil {
		t.Fatal("round-trip lost nesting")
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.Add("x", 1)
	if tr.ID() != "" || tr.Finish() != nil {
		t.Fatal("nil trace should be inert")
	}
	ctx := context.Background()
	ctx2, s := Start(ctx, "anything")
	if s != nil {
		t.Fatal("Start without a trace must return a nil span")
	}
	if ctx2 != ctx {
		t.Fatal("Start without a trace must not derive a new context")
	}
	s.End()
	s.Add("x", 1)
	if s.Record("y", time.Millisecond) != nil {
		t.Fatal("nil span Record must return nil")
	}
	if Enabled(ctx) {
		t.Fatal("Enabled on bare context")
	}
}

func TestStartUntracedAllocationFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, s := Start(ctx, "hot")
		s.Add("pairs", 1)
		s.End()
		_ = c
	})
	if allocs != 0 {
		t.Fatalf("untraced Start allocated %.1f times per run", allocs)
	}
}

func TestOpenSpansClosedAtFinish(t *testing.T) {
	tr := New("r")
	ctx := NewContext(context.Background(), tr)
	_, s := Start(ctx, "never-ended")
	_ = s // error path unwound without End
	time.Sleep(time.Millisecond)
	dto := tr.Finish()
	sp := dto.Find("never-ended")
	if sp == nil || sp.DurMS <= 0 {
		t.Fatalf("open span should be closed at trace end: %+v", sp)
	}
}

func TestTraceConcurrentSpans(t *testing.T) {
	tr := New("r")
	ctx := NewContext(context.Background(), tr)
	ctx, exec := Start(ctx, "execute")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, s := Start(ctx, fmt.Sprintf("tile-%d", i))
			s.Add("pairs", int64(i))
			s.End()
		}(i)
	}
	wg.Wait()
	exec.End()
	dto := tr.Finish()
	names := dto.SpanNames()
	if len(names) != 17 {
		t.Fatalf("want execute + 16 tiles, got %v", names)
	}
}

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("up", "Always one.", func() float64 { return 1 })
	r.Func("tenant_admitted_total", "Admissions.", "counter", func() []Sample {
		return []Sample{
			{Label: "tenant", LabelValue: "zeta", V: 5},
			{Label: "tenant", LabelValue: `al"pha`, V: 3},
		}
	})
	h := r.Histogram("join_duration_seconds", "Join latency.", "engine", []float64{0.1, 1})
	h.Observe("grid", 0.05)
	h.Observe("grid", 0.5)
	h.Observe("grid", 5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE join_duration_seconds histogram",
		`join_duration_seconds_bucket{engine="grid",le="0.1"} 1`,
		`join_duration_seconds_bucket{engine="grid",le="1"} 2`,
		`join_duration_seconds_bucket{engine="grid",le="+Inf"} 3`,
		`join_duration_seconds_count{engine="grid"} 3`,
		`tenant_admitted_total{tenant="al\"pha"} 3`,
		`tenant_admitted_total{tenant="zeta"} 5`,
		"# TYPE up gauge",
		"up 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Label values sort within a family: alpha-line before zeta-line.
	if strings.Index(out, "al\\\"pha") > strings.Index(out, "zeta") {
		t.Fatalf("label values not sorted:\n%s", out)
	}
	// Scrapes of the same state are byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != out {
		t.Fatal("exposition not deterministic")
	}
	if h.Count("grid") != 3 {
		t.Fatalf("Count = %d", h.Count("grid"))
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("x", "", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	r.GaugeFunc("x", "", func() float64 { return 0 })
}

func TestJoinRing(t *testing.T) {
	r := NewJoinRing(3)
	for i := 1; i <= 5; i++ {
		r.Add(JoinRecord{RequestID: fmt.Sprintf("r%d", i), Pairs: int64(i)})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("len = %d", len(snap))
	}
	if snap[0].RequestID != "r5" || snap[2].RequestID != "r3" {
		t.Fatalf("newest-first order wrong: %+v", snap)
	}
	if r.Total() != 5 {
		t.Fatalf("total = %d", r.Total())
	}
	var nilRing *JoinRing
	nilRing.Add(JoinRecord{})
	if nilRing.Snapshot() != nil || nilRing.Total() != 0 {
		t.Fatal("nil ring should be inert")
	}
}

func TestPlannerRecorderReport(t *testing.T) {
	rec := NewPlannerRecorder(16, nil)
	shape := func(engine string, pred, meas float64, hit bool) PlannerSample {
		return PlannerSample{
			A: DatasetFeatures{Name: "a", Version: 1}, B: DatasetFeatures{Name: "b", Version: 1},
			Predicate: "intersects", Engine: engine,
			PredictedMS: pred, MeasuredMS: meas, CacheHit: hit,
		}
	}
	// Same shape on two engines: grid measured cheaper → grid wins.
	rec.Record(shape("grid", 10, 20, false))         // rel err 0.5
	rec.Record(shape("grid", 30, 20, false))         // rel err 0.5
	rec.Record(shape("transformers", 50, 40, false)) // rel err 0.25
	rec.Record(shape("grid", 10, 20, true))          // cache hit: counted, not aggregated

	rep := rec.Report()
	if rep.Samples != 4 || rep.CacheHits != 1 {
		t.Fatalf("samples=%d hits=%d", rep.Samples, rep.CacheHits)
	}
	if len(rep.Engines) != 2 {
		t.Fatalf("engines: %+v", rep.Engines)
	}
	var grid, tf EngineAccuracy
	for _, e := range rep.Engines {
		switch e.Engine {
		case "grid":
			grid = e
		case "transformers":
			tf = e
		}
	}
	if grid.Samples != 2 || grid.MeanRelError != 0.5 {
		t.Fatalf("grid acc: %+v", grid)
	}
	if grid.Wins != 2 || grid.Losses != 0 {
		t.Fatalf("grid win/loss: %+v", grid)
	}
	if tf.Wins != 0 || tf.Losses != 1 || tf.MeanRelError != 0.25 {
		t.Fatalf("transformers acc: %+v", tf)
	}
}

// TestPlannerRecorderCacheHitsCannotSkew is the regression test for the
// best-in-hindsight audit: replayed cache hits — however many, however
// extreme their recorded costs — must leave per-engine means and wins/losses
// exactly where the executed (miss) samples put them.
func TestPlannerRecorderCacheHitsCannotSkew(t *testing.T) {
	shape := func(engine string, pred, meas float64, hit bool) PlannerSample {
		return PlannerSample{
			A: DatasetFeatures{Name: "a", Version: 1}, B: DatasetFeatures{Name: "b", Version: 1},
			Predicate: "intersects", Engine: engine,
			PredictedMS: pred, MeasuredMS: meas, CacheHit: hit,
		}
	}
	misses := []PlannerSample{
		shape("grid", 10, 20, false),         // rel err 0.5
		shape("transformers", 30, 40, false), // rel err 0.25, loses hindsight
		shape("grid", 30, 20, false),         // rel err 0.5, grid mean 20 wins
	}
	// A storm of replays interleaved with the misses: grid replays with an
	// absurdly cheap measured cost and transformers with an absurdly dear
	// one, so any leak into the aggregation would flip means AND hindsight.
	rec := NewPlannerRecorder(64, nil)
	for i, m := range misses {
		for j := 0; j < 5; j++ {
			rec.Record(shape("grid", 10, 0.001, true))
			rec.Record(shape("transformers", 30, 1e9, true))
		}
		_ = i
		rec.Record(m)
	}
	rep := rec.Report()
	if rep.Samples != 33 || rep.CacheHits != 30 {
		t.Fatalf("samples=%d hits=%d", rep.Samples, rep.CacheHits)
	}
	for _, e := range rep.Engines {
		switch e.Engine {
		case "grid":
			if e.Samples != 2 || e.MeanRelError != 0.5 || e.Wins != 2 || e.Losses != 0 {
				t.Fatalf("grid skewed by cache hits: %+v", e)
			}
		case "transformers":
			if e.Samples != 1 || e.MeanRelError != 0.25 || e.Wins != 0 || e.Losses != 1 {
				t.Fatalf("transformers skewed by cache hits: %+v", e)
			}
		default:
			t.Fatalf("unexpected engine %+v", e)
		}
	}
}

// TestPlannerRecorderObserver: every recorded sample reaches the observer —
// the seam the serving path hangs the planner's wall table on — including cache
// hits (the observer does its own filtering), and a nil recorder stays inert.
func TestPlannerRecorderObserver(t *testing.T) {
	var rec *PlannerRecorder
	var seen []PlannerSample
	rec = NewPlannerRecorder(4, func(s PlannerSample) {
		// Reentrancy: the observer may consult the recorder.
		_ = rec.Total()
		seen = append(seen, s)
	})
	rec.Record(PlannerSample{Engine: "grid", MeasuredMS: 5})
	rec.Record(PlannerSample{Engine: "grid", MeasuredMS: 7, CacheHit: true})
	if len(seen) != 2 || seen[0].MeasuredMS != 5 || !seen[1].CacheHit {
		t.Fatalf("observer saw %+v", seen)
	}
	var nilRec *PlannerRecorder
	nilRec.Record(PlannerSample{})
}

// TestPlannerSampleExcludedRoundTrip: exclusion reasons and prices ride a
// retained sample's JSON (what /debug/planner serves), so a reader can tell
// "excluded" from "missing".
func TestPlannerSampleExcludedRoundTrip(t *testing.T) {
	rec := NewPlannerRecorder(2, nil)
	rec.Record(PlannerSample{
		Engine:      "transformers",
		Scores:      map[string]float64{"transformers": 12},
		Excluded:    map[string]string{"naive": "reference engine over cap"},
		PredictedMS: 12,
		MeasuredMS:  14,
	})
	doc, err := json.Marshal(rec.Snapshot()[0])
	if err != nil {
		t.Fatal(err)
	}
	var back PlannerSample
	if err := json.Unmarshal(doc, &back); err != nil {
		t.Fatal(err)
	}
	if back.Excluded["naive"] == "" || back.Scores["transformers"] != 12 || back.PredictedMS != 12 || back.MeasuredMS != 14 {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}

func TestPlannerRecorderSingleEngineNoWinLoss(t *testing.T) {
	rec := NewPlannerRecorder(8, nil)
	rec.Record(PlannerSample{Engine: "grid", A: DatasetFeatures{Name: "a"}, B: DatasetFeatures{Name: "b"}, PredictedMS: 1, MeasuredMS: 1})
	rep := rec.Report()
	if rep.Engines[0].Wins != 0 || rep.Engines[0].Losses != 0 {
		t.Fatalf("single-engine group must not count wins/losses: %+v", rep.Engines[0])
	}
}

func TestPlannerRecorderBounded(t *testing.T) {
	rec := NewPlannerRecorder(4, nil)
	for i := 0; i < 10; i++ {
		rec.Record(PlannerSample{Engine: "grid", WallMS: float64(i)})
	}
	snap := rec.Snapshot()
	if len(snap) != 4 || snap[0].WallMS != 9 || snap[3].WallMS != 6 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if rec.Total() != 10 {
		t.Fatalf("total = %d", rec.Total())
	}
	var nilRec *PlannerRecorder
	nilRec.Record(PlannerSample{})
	if nilRec.Snapshot() != nil {
		t.Fatal("nil recorder should be inert")
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("ids: %q %q", a, b)
	}
}
