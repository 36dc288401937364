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

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if len(a) != 16 || a == b {
		t.Fatalf("ids: %q %q", a, b)
	}
}
