package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/transformers"
)

// spanNames flattens a span tree into the set of span names it contains.
func spanNames(spans []*obs.SpanDTO, into map[string]bool) {
	for _, s := range spans {
		into[s.Name] = true
		spanNames(s.Children, into)
	}
}

// requireSpans asserts every name in want appears somewhere in the tree.
func requireSpans(t *testing.T, dto *obs.TraceDTO, want ...string) {
	t.Helper()
	if dto == nil {
		t.Fatal("no trace in response")
	}
	names := make(map[string]bool)
	spanNames(dto.Spans, names)
	for _, w := range want {
		found := names[w]
		if !found && strings.HasSuffix(w, "*") {
			prefix := strings.TrimSuffix(w, "*")
			for n := range names {
				if strings.HasPrefix(n, prefix) {
					found = true
					break
				}
			}
		}
		if !found {
			t.Fatalf("span %q missing from trace; have %v", w, names)
		}
	}
}

// tracedJoinResponse is the joinResponse fields these tests care about,
// decoded with the typed trace.
type tracedJoinResponse struct {
	RequestID string        `json:"request_id"`
	Cached    bool          `json:"cached"`
	Summary   JoinSummary   `json:"summary"`
	Trace     *obs.TraceDTO `json:"trace"`
	Error     string        `json:"error"`
}

func postTraced(t *testing.T, url, body string, headers map[string]string) (int, *tracedJoinResponse, http.Header) {
	t.Helper()
	req, err := http.NewRequest("POST", url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var out tracedJoinResponse
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return resp.StatusCode, &out, resp.Header
}

// TestTraceSpanTreeCollected: a traced collected join reports the full
// pipeline — plan, cache lookup, admission wait, execution with catalog and
// engine children — and the top-level span durations account for the
// reported wall time (the spans are contiguous; gaps would mean untraced
// stretches).
func TestTraceSpanTreeCollected(t *testing.T) {
	ts, svc := newTestServer(t, Config{SlowJoinThreshold: -1})
	addDataset(t, svc, "a", transformers.GenerateUniform(20000, 401))
	addDataset(t, svc, "b", transformers.GenerateUniform(20000, 402))

	code, out, hdr := postTraced(t, ts.URL+"/join", `{"a":"a","b":"b","trace":true}`,
		map[string]string{"X-Request-ID": "trace-collected-1"})
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, out.Error)
	}
	if out.RequestID != "trace-collected-1" {
		t.Fatalf("request_id = %q, want the honored header value", out.RequestID)
	}
	if hdr.Get("X-Request-ID") != "trace-collected-1" {
		t.Fatalf("X-Request-ID header = %q", hdr.Get("X-Request-ID"))
	}
	requireSpans(t, out.Trace, "plan", "cache", "admission-wait", "execute", "catalog", "engine:*")

	var sum float64
	for _, s := range out.Trace.Spans {
		sum += s.DurMS
	}
	if wall := out.Trace.WallMS; sum < 0.9*wall || sum > 1.1*wall {
		t.Fatalf("top-level span durations sum to %.3fms, want within 10%% of wall %.3fms", sum, wall)
	}

	// The engine span carries the execution counters.
	var engineSpan *obs.SpanDTO
	var find func(spans []*obs.SpanDTO)
	find = func(spans []*obs.SpanDTO) {
		for _, s := range spans {
			if strings.HasPrefix(s.Name, "engine:") {
				engineSpan = s
			}
			find(s.Children)
		}
	}
	find(out.Trace.Spans)
	if engineSpan == nil || engineSpan.Counters["pairs"] != int64(out.Summary.Results) {
		t.Fatalf("engine span counters = %+v, want pairs=%d", engineSpan, out.Summary.Results)
	}

	// Every join lands in /debug/joins under a negative threshold.
	recs := svc.SlowJoins().Snapshot()
	if len(recs) != 1 || recs[0].RequestID != "trace-collected-1" || recs[0].Outcome != "ok" {
		t.Fatalf("slow-join ring = %+v, want the one ok join", recs)
	}
	if recs[0].Trace == nil {
		t.Fatal("ring record lost its span tree")
	}
}

// TestTraceSpanTreeStreaming: the streaming path is traced end to end — the
// execute span carries a stream-emit child with the pair count — on both the
// live run and the cache-replay ("replay" span) that follows it.
func TestTraceSpanTreeStreaming(t *testing.T) {
	ts, svc := newTestServer(t, Config{SlowJoinThreshold: -1})
	addDataset(t, svc, "a", bigOverlapDataset(1000, 403))
	addDataset(t, svc, "b", bigOverlapDataset(1000, 404))

	stream := func(rid string) (*streamTrailer, int) {
		req, err := http.NewRequest("POST", ts.URL+"/join",
			strings.NewReader(`{"a":"a","b":"b","stream":true}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Trace", "1")
		req.Header.Set("X-Request-ID", rid)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status = %d", resp.StatusCode)
		}
		pairs := 0
		var trailer *streamTrailer
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Bytes()
			if bytes.Contains(line, []byte(`"request_id"`)) {
				trailer = &streamTrailer{}
				if err := json.Unmarshal(line, trailer); err != nil {
					t.Fatalf("trailer %q: %v", line, err)
				}
				continue
			}
			pairs++
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if trailer == nil {
			t.Fatal("no trailer line")
		}
		return trailer, pairs
	}

	live, pairs := stream("trace-stream-live")
	if live.Aborted || live.Cached {
		t.Fatalf("live trailer = %+v", live)
	}
	if live.RequestID != "trace-stream-live" || live.Pairs != pairs {
		t.Fatalf("trailer request_id=%q pairs=%d, sent %d", live.RequestID, live.Pairs, pairs)
	}
	requireSpans(t, live.Trace, "plan", "cache", "admission-wait", "execute", "stream-emit", "engine:*")

	replay, rpairs := stream("trace-stream-replay")
	if !replay.Cached || rpairs != pairs {
		t.Fatalf("replay trailer = %+v (%d pairs, want %d)", replay, rpairs, pairs)
	}
	requireSpans(t, replay.Trace, "plan", "cache", "replay")

	recs := svc.SlowJoins().Snapshot()
	if len(recs) != 2 {
		t.Fatalf("ring has %d records, want 2", len(recs))
	}
	for _, r := range recs {
		if r.Outcome != "ok" || r.Pairs != int64(pairs) {
			t.Fatalf("ring record = %+v", r)
		}
	}
}

// TestMetricsHistogramCountsMatchServedJoins: under concurrent mixed traffic
// (collected + streamed, cache hits included) the per-engine latency
// histogram counts on /metrics sum to exactly the joins served.
func TestMetricsHistogramCountsMatchServedJoins(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	addDataset(t, svc, "a", transformers.GenerateUniform(1000, 405))
	addDataset(t, svc, "b", transformers.GenerateDenseCluster(1000, 406))

	const goroutines = 4
	const perG = 6 // half collected, half streamed
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				body := `{"a":"a","b":"b"}`
				if i%2 == 1 {
					body = `{"a":"a","b":"b","stream":true}`
				}
				resp, err := http.Post(ts.URL+"/join", "application/json", strings.NewReader(body))
				if err != nil {
					t.Errorf("join %d/%d: %v", g, i, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("join %d/%d: status %d", g, i, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}

	total, heap := 0.0, 0.0
	for _, line := range strings.Split(string(raw), "\n") {
		count := strings.HasPrefix(line, "spatialjoin_join_duration_seconds_count{")
		if !count && !strings.HasPrefix(line, "go_heap_alloc_bytes ") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		if count {
			total += v
		} else {
			heap = v
		}
	}
	if heap < 1<<16 {
		t.Fatalf("go_heap_alloc_bytes = %v, want the live heap (runtime/metrics read)", heap)
	}
	if want := float64(goroutines * perG); total != want {
		t.Fatalf("histogram counts sum to %v, want %v served joins\n%s", total, want, raw)
	}
	for _, family := range []string{
		"spatialjoin_build_duration_seconds", "spatialjoin_pool_queue_depth",
		"spatialjoin_join_cache_hit_ratio", "spatialjoin_index_cache_hit_ratio",
		"spatialjoin_tenant_admitted_total", "go_goroutines", "spatialjoin_uptime_seconds",
	} {
		if !strings.Contains(string(raw), "# TYPE "+family+" ") {
			t.Fatalf("family %s missing from exposition", family)
		}
	}
	// Monotone counts are exposed as counters: rate() over a gauge-typed
	// _total family is flagged by Prometheus.
	for _, family := range []string{
		"spatialjoin_joins_total", "spatialjoin_streamed_pairs_total", "spatialjoin_aborted_streams_total",
		"spatialjoin_slow_joins_total", "spatialjoin_delta_merges_total",
		"spatialjoin_engine_joins_total", "spatialjoin_tenant_admitted_total",
	} {
		if !strings.Contains(string(raw), "# TYPE "+family+" counter\n") {
			t.Fatalf("family %s is not exposed as a counter\n%s", family, raw)
		}
	}
	// Two dataset registrations → at least two successful builds observed.
	if !strings.Contains(string(raw), `spatialjoin_build_duration_seconds_count{outcome="ok"}`) {
		t.Fatal("build histogram has no ok observations")
	}
}

// TestObsInMemEngineSpan: the in-memory fast-path engine is a first-class
// citizen of the observability surface — an explicit inmem join carries an
// "engine:inmem" span in its trace, reports the algorithm in the summary,
// and lands in the duration histogram under the engine="inmem" label.
func TestObsInMemEngineSpan(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	addDataset(t, svc, "a", bigOverlapDataset(2000, 417))
	addDataset(t, svc, "b", bigOverlapDataset(2000, 418))

	code, out, _ := postTraced(t, ts.URL+"/join",
		`{"a":"a","b":"b","algorithm":"inmem","trace":true}`, nil)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, out.Error)
	}
	if out.Summary.Algorithm != "inmem" {
		t.Fatalf("summary algorithm = %q, want inmem", out.Summary.Algorithm)
	}
	if out.Summary.Results == 0 {
		t.Fatal("inmem join found no pairs on overlapping data")
	}
	requireSpans(t, out.Trace, "plan", "execute", "engine:inmem")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	seen := false
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "spatialjoin_join_duration_seconds_count{") &&
			strings.Contains(line, `engine="inmem"`) {
			seen = true
		}
	}
	if !seen {
		t.Fatalf("no engine=\"inmem\" duration histogram series after an inmem join\n%s", raw)
	}
}

// TestObsDeadlineJoin: a 504 carries the request ID and (on request) the
// trace in the error body, and the ring records outcome "deadline".
func TestObsDeadlineJoin(t *testing.T) {
	ts, svc := newTestServer(t, Config{Workers: 2, SlowJoinThreshold: -1})
	addDataset(t, svc, "a", bigOverlapDataset(4000, 407))
	addDataset(t, svc, "b", bigOverlapDataset(4000, 408))

	code, out, _ := postTraced(t, ts.URL+"/join",
		`{"a":"a","b":"b","no_cache":true,"timeout_ms":10,"trace":true}`,
		map[string]string{"X-Request-ID": "rid-504"})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", code)
	}
	if out.RequestID != "rid-504" {
		t.Fatalf("error body request_id = %q", out.RequestID)
	}
	requireSpans(t, out.Trace, "plan", "admission-wait", "execute")

	recs := svc.SlowJoins().Snapshot()
	if len(recs) != 1 || recs[0].Outcome != "deadline" || recs[0].Status != http.StatusGatewayTimeout {
		t.Fatalf("ring = %+v, want one deadline/504 record", recs)
	}
	waitPoolDrained(t, svc)

	// A join that fails after planning is filed under the engine that was
	// running it — the slow engine's histogram must hold its worst outcomes —
	// collected or streamed; only a failure before planning resolved an engine
	// (here: an unknown algorithm) is filed under "none".
	if recs[0].Engine != engine.Transformers {
		t.Fatalf("deadline record engine = %q, want %q", recs[0].Engine, engine.Transformers)
	}
	resp, err := http.Post(ts.URL+"/join", "application/json",
		strings.NewReader(`{"a":"a","b":"b","no_cache":true,"stream":true,"timeout_ms":1,"algorithm":"inmem"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if code, _, _ = postTraced(t, ts.URL+"/join", `{"a":"a","b":"b","algorithm":"no-such-engine"}`, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown algorithm: status = %d, want 400", code)
	}
	recs = svc.SlowJoins().Snapshot() // newest first
	if len(recs) != 3 || recs[1].Engine != engine.InMem || recs[1].Outcome != "deadline" || recs[0].Engine != "" || recs[0].Outcome != "error" {
		t.Fatalf("ring = %+v, want inmem's deadline then an engine-less error", recs)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, label := range []string{engine.Transformers, engine.InMem, "none"} {
		if line := fmt.Sprintf("spatialjoin_join_duration_seconds_count{engine=%q} 1\n", label); !strings.Contains(string(raw), line) {
			t.Fatalf("exposition lacks %q\n%s", line, raw)
		}
	}
	waitPoolDrained(t, svc)
}

// TestObsShedAndBusyJoins: admission rejections are observable — 429 (tenant
// shed) and 503 (pool saturated, no queue) both answer with the request ID
// and land in the ring with outcomes "shed" and "busy".
func TestObsShedAndBusyJoins(t *testing.T) {
	ts, svc := newTestServer(t, Config{Workers: 1, TenantQueue: 1, SlowJoinThreshold: -1})
	addDataset(t, svc, "a", bigOverlapDataset(800, 409))
	addDataset(t, svc, "b", bigOverlapDataset(800, 410))

	// One streamed join whose client stops reading holds the single slot
	// until the test releases it.
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		req := httptest.NewRequest(http.MethodPost, "/join",
			strings.NewReader(`{"a":"a","b":"b","no_cache":true,"stream":true}`))
		NewHandler(svc).ServeHTTP(&faultyWriter{stall: func() { <-release }}, req)
	}()
	waitFor(t, "stalled join active", func() bool { return svc.Stats().Pool.Active > 0 })

	// A second join queues (tenant queue cap 1)...
	queued := make(chan struct{})
	go func() {
		defer close(queued)
		resp, err := http.Post(ts.URL+"/join", "application/json",
			strings.NewReader(`{"a":"a","b":"b","no_cache":true,"timeout_ms":1000}`))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "second join queued", func() bool { return svc.Stats().Pool.Queued > 0 })

	// ...so a third from the same (default) tenant is shed: 429.
	code, out, hdr := postTraced(t, ts.URL+"/join", `{"a":"a","b":"b","no_cache":true}`,
		map[string]string{"X-Request-ID": "rid-429"})
	if code != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429 (%s)", code, out.Error)
	}
	if out.RequestID != "rid-429" || hdr.Get("Retry-After") == "" {
		t.Fatalf("shed response: request_id=%q retry-after=%q", out.RequestID, hdr.Get("Retry-After"))
	}
	waitFor(t, "shed recorded", func() bool {
		for _, r := range svc.SlowJoins().Snapshot() {
			if r.Outcome == "shed" && r.RequestID == "rid-429" {
				return true
			}
		}
		return false
	})

	// Swap in a queue-less pool: saturation now rejects immediately with 503.
	svc.pool = NewPool(PoolConfig{Capacity: 1, MaxQueue: 0})
	block := make(chan struct{})
	unblock := make(chan struct{})
	go svc.pool.Do(t.Context(), Request{Tenant: "x", Cost: 1}, func() error {
		close(block)
		<-unblock
		return nil
	})
	<-block
	code, out, _ = postTraced(t, ts.URL+"/join", `{"a":"a","b":"b","no_cache":true}`,
		map[string]string{"X-Request-ID": "rid-503"})
	close(unblock)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 (%s)", code, out.Error)
	}
	if out.RequestID != "rid-503" {
		t.Fatalf("busy response request_id = %q", out.RequestID)
	}
	found := false
	for _, r := range svc.SlowJoins().Snapshot() {
		if r.Outcome == "busy" && r.RequestID == "rid-503" && r.Status == http.StatusServiceUnavailable {
			found = true
		}
	}
	if !found {
		t.Fatalf("ring = %+v, want a busy record", svc.SlowJoins().Snapshot())
	}
	close(release)
	<-done
	<-queued
}

// TestObsAbortedStreamRecorded: a stream that dies mid-flight (a write to the
// client failing after pairs flowed) is recorded in the ring with outcome
// "aborted" and the request ID. The failed write ends the response, so no
// trailer reaches this client; TestHTTPStreamDeadlineTrailer holds the
// aborted trailer a still-connected client gets.
func TestObsAbortedStreamRecorded(t *testing.T) {
	svc := NewService(Config{SlowJoinThreshold: -1})
	addDataset(t, svc, "a", bigOverlapDataset(800, 411))
	addDataset(t, svc, "b", bigOverlapDataset(800, 412))

	w := &faultyWriter{failAfter: 16 << 10}
	req := httptest.NewRequest(http.MethodPost, "/join",
		strings.NewReader(`{"a":"a","b":"b","stream":true,"no_cache":true}`))
	req.Header.Set("X-Request-ID", "rid-abort")
	NewHandler(svc).ServeHTTP(w, req)
	if w.status != http.StatusOK || !w.failed.Load() || w.body.Len() == 0 {
		t.Fatalf("status = %d, write failed = %v after %d bytes: want a stream that started and then lost its client", w.status, w.failed.Load(), w.body.Len())
	}
	if bytes.Contains(w.body.Bytes(), []byte(`"request_id"`)) {
		t.Fatalf("a trailer was written past the failed write: %q", w.body.Bytes())
	}
	if st := svc.Stats(); st.AbortedStreams != 1 {
		t.Fatalf("aborted_streams = %d, want 1", st.AbortedStreams)
	}
	recs := svc.SlowJoins().Snapshot()
	if len(recs) != 1 || recs[0].Outcome != "aborted" || recs[0].RequestID != "rid-abort" {
		t.Fatalf("ring = %+v, want one aborted record", recs)
	}
	waitPoolDrained(t, svc)
}

// TestPlannerRecorderSurvivesCacheHits: a cache-hit join still records a
// planner sample (flagged, with the replayed summary's measured cost) instead
// of being dropped, and the /debug/planner report counts it separately from
// the error aggregation.
func TestPlannerRecorderSurvivesCacheHits(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	addDataset(t, svc, "a", transformers.GenerateUniform(1500, 413))
	addDataset(t, svc, "b", transformers.GenerateUniform(1500, 414))

	for i := 0; i < 2; i++ {
		code, out, _ := postTraced(t, ts.URL+"/join", `{"a":"a","b":"b"}`, nil)
		if code != http.StatusOK {
			t.Fatalf("join %d: status %d", i, code)
		}
		if (i == 1) != out.Cached {
			t.Fatalf("join %d cached = %v", i, out.Cached)
		}
	}
	samples := svc.PlannerRecorder().Snapshot()
	if len(samples) != 2 {
		t.Fatalf("recorder has %d samples, want 2 (cache hit dropped?)", len(samples))
	}
	hit, miss := samples[0], samples[1] // newest first
	if !hit.CacheHit || miss.CacheHit {
		t.Fatalf("cache-hit flags wrong: %+v / %+v", hit, miss)
	}
	if hit.Engine != miss.Engine || hit.Engine == "" {
		t.Fatalf("engines: hit=%q miss=%q", hit.Engine, miss.Engine)
	}
	if hit.MeasuredMS != miss.MeasuredMS {
		t.Fatalf("cache-hit measured=%v, want the replayed summary's %v", hit.MeasuredMS, miss.MeasuredMS)
	}
	if hit.A.Count != 1500 || hit.A.Version == 0 {
		t.Fatalf("dataset features = %+v", hit.A)
	}
	rep := svc.PlannerRecorder().Report()
	if rep.CacheHits != 1 || rep.Total != 2 {
		t.Fatalf("report = %+v, want total=2 cache_hits=1", rep)
	}
	var n int
	for _, eng := range rep.Engines {
		n += eng.Samples
	}
	if n != 1 {
		t.Fatalf("executed samples in report = %d, want 1 (cache hits excluded from error stats)", n)
	}

	// /debug/planner serves the same picture.
	resp, err := http.Get(ts.URL + "/debug/planner")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Report obs.PlannerReport   `json:"report"`
		Recent []obs.PlannerSample `json:"recent"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc.Report.Total != 2 || len(doc.Recent) != 2 {
		t.Fatalf("/debug/planner = %+v", doc.Report)
	}
}

// TestPlannerReportConcurrent: samples stream in while /debug/planner
// aggregates — the recorder must be race-free (run under -race).
func TestPlannerReportConcurrent(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	addDataset(t, svc, "a", transformers.GenerateUniform(500, 415))

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Post(ts.URL+"/join", "application/json",
					strings.NewReader(`{"a":"a","b":"a","no_cache":true}`))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				svc.PlannerRecorder().Report()
			}
		}
	}()
	wg.Wait()
	close(stop)
	rep := svc.PlannerRecorder().Report()
	if rep.Total != 24 {
		t.Fatalf("recorder total = %d, want 24", rep.Total)
	}
	for _, eng := range rep.Engines {
		if eng.Samples > 0 && eng.MeanRelError < 0 {
			t.Fatalf("engine accuracy = %+v", eng)
		}
	}
}

// TestStatsDeterministicAndUptime: /stats marshals deterministically
// (encoding/json sorts the engine and tenant maps) and reports uptime.
func TestStatsDeterministicAndUptime(t *testing.T) {
	svc := NewService(Config{})
	addDataset(t, svc, "a", transformers.GenerateUniform(500, 416))
	for _, algo := range []string{"", engine.InMem, AlgorithmAuto} {
		if _, err := svc.Join(t.Context(), "a", "a", JoinParams{Algorithm: algo, NoCache: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := svc.Stats()
	if st.UptimeS < 0 {
		t.Fatalf("uptime_s = %d", st.UptimeS)
	}
	a, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		b, err := json.Marshal(st)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("marshal %d differs:\n%s\n%s", i, a, b)
		}
	}
	if !bytes.Contains(a, []byte(`"uptime_s"`)) {
		t.Fatal("uptime_s missing from /stats payload")
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestObsIngestAttribution: the two halves of an upload's cost are readable
// off the daemon itself. The POST /datasets response carries decode_ms (body
// read + decode) beside build_ms (registration + index build), and /metrics
// has spatialjoin_ingest_decode_seconds next to
// spatialjoin_build_duration_seconds, with refused bodies under
// outcome="error".
func TestObsIngestAttribution(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	code, doc := postJSON(t, ts.URL+"/datasets", string(uploadBody("up", transformers.GenerateUniform(2000, 431))))
	if code != http.StatusCreated {
		t.Fatalf("upload: %d %v", code, doc)
	}
	decodeMS, okD := doc["decode_ms"].(float64)
	buildMS, okB := doc["build_ms"].(float64)
	if !okD || !okB || decodeMS <= 0 || buildMS <= 0 {
		t.Fatalf("upload response decode_ms=%v build_ms=%v, want both positive", doc["decode_ms"], doc["build_ms"])
	}
	if code, _ := postJSON(t, ts.URL+"/datasets/up/append", `{"elements":[{"id":1,"box":{"lo":[0,0,0],"hi":[1,1,1]}}]}`); code != http.StatusOK {
		t.Fatalf("append: %d", code)
	}
	if code, _ := postJSON(t, ts.URL+"/datasets", `{"name":"bad","elements":[{"id":1,"box":{"lo":[0,0]}}]}`); code != http.StatusBadRequest {
		t.Fatalf("malformed upload: %d, want 400", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, line := range []string{
		"# TYPE spatialjoin_ingest_decode_seconds histogram",
		`spatialjoin_ingest_decode_seconds_count{outcome="ok"} 2`,
		`spatialjoin_ingest_decode_seconds_count{outcome="error"} 1`,
		`spatialjoin_build_duration_seconds_count{outcome="ok"} 1`,
	} {
		if !strings.Contains(string(raw), line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}
