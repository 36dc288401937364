package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/naive"
	"repro/internal/storage"
	"repro/transformers"
)

// errConsumerFailed is what a faultyConsumer scripted to fail returns.
var errConsumerFailed = errors.New("consumer failed")

// JoinStream consumer faults, the ones a client brings to the place where the
// pairs leave the service.
const (
	consumerClean = iota // accepts every pair
	consumerFail         // fails: errConsumerFailed
	consumerStall        // stops reading until the request is over
)

// faultyConsumer is a JoinStream consumer that accepts after pairs and then
// applies fault once: it fails the next pair, or blocks on it until ctx is
// done and then accepts it — the deadline, not the consumer, ends the join.
func faultyConsumer(ctx context.Context, fault, after int) func(transformers.Pair) error {
	n := 0
	return func(transformers.Pair) error {
		if n++; n != after+1 {
			return nil
		}
		switch fault {
		case consumerFail:
			return errConsumerFailed
		case consumerStall:
			<-ctx.Done()
		}
		return nil
	}
}

// checkGoroutines fails the test if the goroutine count does not settle back
// near its baseline — the leak gate behind every abort path here.
func checkGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitPoolDrained asserts every pool slot was released: aborted requests
// must not strand units or queue entries.
func waitPoolDrained(t *testing.T, svc *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := svc.Stats().Pool
		if st.Active == 0 && st.Queued == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool slots not released: active=%d queued=%d", st.Active, st.Queued)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFailedUploadBuildsOnce: an upload whose index build fails is not
// retried. One build-fail fault makes POST /datasets answer a 5xx naming the
// injected fault after exactly one store from the factory; nothing is
// installed, and the next upload of the same name builds.
func TestFailedUploadBuildsOnce(t *testing.T) {
	sc := faultinject.New(faultinject.Fault{Op: faultinject.OpBuildFail, Times: 1})
	var stores atomic.Int64
	factory := func() storage.Store {
		stores.Add(1)
		return sc.StoreFactory()
	}
	ts, svc := newTestServer(t, Config{StoreFactory: factory})
	const body = `{"name":"a","generate":{"kind":"uniform","n":200,"seed":202}}`

	code, doc := postJSON(t, ts.URL+"/datasets", body)
	msg, _ := doc["error"].(string)
	if code < 500 || !strings.Contains(msg, "server: index build") || !strings.Contains(msg, "injected fault") {
		t.Fatalf("upload over a failing build: %d %v, want a 5xx naming the index build and the injected fault", code, doc)
	}
	if n := stores.Load(); n != 1 {
		t.Fatalf("the failed upload took %d stores from the factory, want 1 (one attempt)", n)
	}
	if st := svc.Stats().Catalog; st.Datasets != 0 || st.Builds != 0 {
		t.Fatalf("after a failed upload: %+v, want nothing installed", st)
	}
	if _, err := svc.Join(context.Background(), "a", "a", JoinParams{}); !errors.Is(err, ErrUnknownDataset) {
		t.Fatalf("join of the failed upload: %v, want ErrUnknownDataset", err)
	}

	if code, doc := postJSON(t, ts.URL+"/datasets", body); code != http.StatusCreated || doc["version"] != float64(1) {
		t.Fatalf("the next upload of a: %d %v, want version 1", code, doc)
	}
	if n := stores.Load(); n != 2 {
		t.Fatalf("two uploads took %d stores, want 2", n)
	}
	waitPoolDrained(t, svc)
}

// TestFailedReplacementChangesNothing: a replacement whose build fails is
// refused with a 5xx naming the cause and installs nothing — the
// previous version keeps its number, its cached results, its resident
// partition and its answers at every distance, and health stays ok.
func TestFailedReplacementChangesNothing(t *testing.T) {
	// Two clean factory calls build a and b; the replacement's one build
	// fails, and the upload after it builds clean.
	sc := faultinject.New(faultinject.Fault{Op: faultinject.OpBuildFail, After: 2, Times: 1})
	ts, svc := newTestServer(t, Config{StoreFactory: sc.StoreFactory})
	ctx := context.Background()
	a, bOld := overlapElems(400, 221, 1), overlapElems(300, 222, 10_000)
	addDataset(t, svc, "a", cpElems(a))
	addDataset(t, svc, "b", cpElems(bOld))
	joinAB := JoinParams{Algorithm: engine.Transformers}
	if _, err := svc.Join(ctx, "a", "b", joinAB); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: engine.InMem, NoCache: true}); err != nil {
		t.Fatal(err)
	}
	before := svc.Stats().Catalog
	if before.Partitions != 1 {
		t.Fatalf("after an inmem join: %+v, want one resident partition", before)
	}

	code, doc := postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":100,"seed":223}}`)
	msg, _ := doc["error"].(string)
	if code < 500 || !strings.Contains(msg, "server: index build") || !strings.Contains(msg, "injected fault") {
		t.Fatalf("failing replacement: %d %v, want a 5xx naming the index build and its cause", code, doc)
	}
	if ds := svc.Catalog().Datasets(); ds[1].Name != "b" || ds[1].Version != 1 || ds[1].Elements != len(bOld) {
		t.Fatalf("after a failed replacement: %+v, want b still at version 1", ds)
	}
	out, err := svc.Join(ctx, "a", "b", joinAB)
	if err != nil || !out.Cached {
		t.Fatalf("repeat join after a failed replacement: cached=%v err %v, want a cache hit", out != nil && out.Cached, err)
	}
	if st := svc.Stats().Catalog; st.Builds != before.Builds || st.Partitions != before.Partitions {
		t.Fatalf("after a failed replacement: %+v, want the builds and partitions of %+v", st, before)
	}
	out, err = svc.Join(ctx, "a", "b", JoinParams{Algorithm: engine.Transformers, Distance: 7})
	if err != nil || !pairsMatch(out.Pairs, naiveRef(a, bOld, 7)) {
		t.Fatalf("distance-7 join after a failed replacement: err %v, want the old b's answer", err)
	}
	if raw, _ := json.Marshal(out.Summary); strings.Contains(string(raw), `"stale"`) {
		t.Fatalf("summary %s names staleness", raw)
	}
	elems, _, err := svc.RangeQuery(ctx, "b", transformers.World())
	if err != nil || len(elems) != len(bOld) {
		t.Fatalf("range after a failed replacement: %d elements, err %v, want the old b's %d", len(elems), err, len(bOld))
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil || h.Status != "ok" {
		t.Fatalf("healthz after a failed replacement: %+v, err %v, want ok", h, err)
	}

	if code, doc := postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":100,"seed":223}}`); code != http.StatusCreated || doc["version"] != float64(2) {
		t.Fatalf("the next good upload of b: %d %v, want version 2", code, doc)
	}
	waitPoolDrained(t, svc)
}

// TestDeadlineBoundsWaitOnBuild: a request waiting on another request's
// partition build gives up at its own deadline, frees its slot and its pin,
// and leaves nothing behind. (No join waits on an index build: a dataset
// version is installed built.)
func TestDeadlineBoundsWaitOnBuild(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := NewService(Config{Workers: 4})
	cat := svc.Catalog()
	addDataset(t, svc, "ds", overlapElems(500, 224, 1))

	// A partition build cannot be gated from outside, so one that never
	// finishes is planted under the key the acquisition will look up.
	cat.mu.Lock()
	gen := cat.datasets["ds"].cur
	stuck := &partEntry{key: partKey{genA: gen, genB: gen, distance: 3}, ready: make(chan struct{})}
	cat.partitions[stuck.key] = stuck
	cat.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := svc.Join(ctx, "ds", "ds", JoinParams{Algorithm: engine.InMem, Distance: 3, NoCache: true})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("a 20 ms request behind a partition build: err = %v, want DeadlineExceeded", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a 20 ms request is still waiting on a partition build after 2 s")
	}
	cat.mu.Lock()
	refs := stuck.refs
	delete(cat.partitions, stuck.key)
	cat.mu.Unlock()
	if refs != 0 {
		t.Fatalf("the waiter that left holds %d pins on the partition", refs)
	}
	waitPoolDrained(t, svc)
	checkGoroutines(t, before)
}

// TestDeadlineAbortsJoin: an expired request deadline aborts the join
// cooperatively — typed error, slot released, no goroutine left behind, and
// the abort attributed to the request's tenant.
func TestDeadlineAbortsJoin(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := NewService(Config{Workers: 2})
	// ~n²·0.027 pairs: the join runs far longer than the deadline on any
	// hardware, so the abort always lands mid-join.
	addDataset(t, svc, "a", bigOverlapDataset(4000, 211))
	addDataset(t, svc, "b", bigOverlapDataset(4000, 212))

	ctx := WithTenant(context.Background(), TenantInfo{ID: "deadliner"})
	ctx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
	defer cancel()
	_, err := svc.Join(ctx, "a", "b", JoinParams{NoCache: true})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if got := svc.Stats().Tenants["deadliner"].DeadlineAborts; got != 1 {
		t.Fatalf("tenant deadline_aborts = %d, want 1", got)
	}
	waitPoolDrained(t, svc)
	checkGoroutines(t, before)

	// The service still works at full speed afterwards.
	out, err := svc.Join(context.Background(), "a", "b", JoinParams{NoCache: true})
	if err != nil {
		t.Fatalf("join after deadline abort: %v", err)
	}
	if out.Summary.Results == 0 {
		t.Fatal("post-abort join returned nothing")
	}
}

// TestHTTPDeadlineMapsTo504: a collected join whose timeout_ms expires
// answers 504; the per-tenant abort counter surfaces in /stats.
func TestHTTPDeadlineMapsTo504(t *testing.T) {
	ts, svc := newTestServer(t, Config{Workers: 2})
	addDataset(t, svc, "a", bigOverlapDataset(4000, 213))
	addDataset(t, svc, "b", bigOverlapDataset(4000, 214))

	req, err := http.NewRequest("POST", ts.URL+"/join",
		strings.NewReader(`{"a":"a","b":"b","no_cache":true,"timeout_ms":10}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "slowpoke")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", resp.StatusCode)
	}
	if got := svc.Stats().Tenants["slowpoke"].DeadlineAborts; got != 1 {
		t.Fatalf("tenant deadline_aborts = %d, want 1", got)
	}
	waitPoolDrained(t, svc)
}

// TestHTTPStreamDeadlineTrailer: when the deadline expires mid-stream the
// status line is long gone — the NDJSON trailer must still arrive, carrying
// the error, aborted:true, and the count of pairs that preceded it.
func TestHTTPStreamDeadlineTrailer(t *testing.T) {
	const timeout = 200 * time.Millisecond
	svc := NewService(Config{Workers: 2})
	addDataset(t, svc, "a", bigOverlapDataset(800, 215))
	addDataset(t, svc, "b", bigOverlapDataset(800, 216))

	// The client stalls its first read for twice the request's deadline: the
	// stream has started (the stalled write carries its first pairs) before
	// the deadline fires — no timing dependence.
	w := &faultyWriter{stall: func() { time.Sleep(2 * timeout) }}
	req := httptest.NewRequest(http.MethodPost, "/join", strings.NewReader(
		fmt.Sprintf(`{"a":"a","b":"b","stream":true,"no_cache":true,"timeout_ms":%d}`, timeout.Milliseconds())))
	req.Header.Set("X-Request-ID", "rid-deadline")
	NewHandler(svc).ServeHTTP(w, req)
	if w.status != http.StatusOK {
		t.Fatalf("status = %d, want 200 (stream had started)", w.status)
	}
	var last map[string]any
	pairLines := 0
	scanner := bufio.NewScanner(&w.body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		line := scanner.Bytes()
		if len(line) == 0 {
			continue
		}
		last = nil
		if err := json.Unmarshal(line, &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		if _, isPair := last["a"]; isPair {
			pairLines++
		}
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if last == nil {
		t.Fatal("stream produced no lines")
	}
	if last["aborted"] != true {
		t.Fatalf("trailer = %v, want aborted:true", last)
	}
	if msg, _ := last["error"].(string); !strings.Contains(msg, "deadline") || last["request_id"] != "rid-deadline" {
		t.Fatalf("trailer error = %q, request_id = %v, want the deadline error and the request ID", msg, last["request_id"])
	}
	if int(last["pairs"].(float64)) != pairLines {
		t.Fatalf("trailer pairs = %v, but %d pair lines were sent", last["pairs"], pairLines)
	}
	waitPoolDrained(t, svc)
}

// TestHTTPStreamCompleteTrailer: a successful stream ends in a trailer with
// aborted:false and the exact pair count — the truncation detector clients
// key on.
func TestHTTPStreamCompleteTrailer(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	elems := transformers.GenerateUniform(300, 217)
	addDataset(t, svc, "a", elems)
	want := naive.Join(elems, elems)

	resp, err := http.Post(ts.URL+"/join", "application/json",
		strings.NewReader(`{"a":"a","b":"a","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var last map[string]any
	pairLines := 0
	scanner := bufio.NewScanner(resp.Body)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		if len(scanner.Bytes()) == 0 {
			continue
		}
		last = nil
		if err := json.Unmarshal(scanner.Bytes(), &last); err != nil {
			t.Fatal(err)
		}
		if _, isPair := last["a"]; isPair {
			pairLines++
		}
	}
	if last == nil || last["aborted"] != false {
		t.Fatalf("trailer = %v, want aborted:false", last)
	}
	if pairLines != len(want) || int(last["pairs"].(float64)) != len(want) {
		t.Fatalf("pairs = %d streamed / %v trailer, want %d", pairLines, last["pairs"], len(want))
	}
	if last["summary"] == nil {
		t.Fatal("trailer missing summary")
	}
}

// TestJoinReadErrorFailsCleanly: a store that starts failing reads after the
// index is built fails the join with the injected error — and the next
// join, past the fault's times cap, succeeds.
func TestJoinReadErrorFailsCleanly(t *testing.T) {
	// Builds only write; reads happen at join time. The first join trips the
	// fault, the next one runs clean.
	sc := faultinject.New(faultinject.Fault{Op: faultinject.OpReadError, Times: 1})
	svc := NewService(Config{StoreFactory: sc.StoreFactory})
	elems := transformers.GenerateUniform(600, 221)
	want := naive.Join(elems, elems)
	addDataset(t, svc, "a", elems)

	_, err := svc.Join(context.Background(), "a", "a", JoinParams{NoCache: true})
	if err == nil {
		t.Fatal("join over a failing store succeeded")
	}
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("err = %v, want the injected storage error", err)
	}
	waitPoolDrained(t, svc)

	out, err := svc.Join(context.Background(), "a", "a", JoinParams{NoCache: true})
	if err != nil {
		t.Fatalf("join after fault exhaustion: %v", err)
	}
	if !naive.Equal(append([]transformers.Pair(nil), out.Pairs...), want) {
		t.Fatalf("recovered join: %d pairs, want %d", len(out.Pairs), len(want))
	}
}

// TestSlowReadJoinStaysCorrect: injected read latency slows the join but
// changes nothing about its result.
func TestSlowReadJoinStaysCorrect(t *testing.T) {
	sc := faultinject.New(faultinject.Fault{Op: faultinject.OpSlowRead, Every: 16, Times: 0, Delay: time.Millisecond})
	svc := NewService(Config{StoreFactory: sc.StoreFactory})
	elems := transformers.GenerateUniform(600, 222)
	want := naive.Join(elems, elems)
	addDataset(t, svc, "a", elems)

	out, err := svc.Join(context.Background(), "a", "a", JoinParams{NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(append([]transformers.Pair(nil), out.Pairs...), want) {
		t.Fatalf("slow-read join: %d pairs, want %d", len(out.Pairs), len(want))
	}
}

// TestInertFaultScenarioReadsAsClean: under a fault scenario that never
// fires (one read error after a billion reads) the catalog builds on the
// fault-injecting stores, which hold and read pages as the plain ones do: the
// same uploads and the same transformers distance join answer the same
// results from the same number of page reads.
func TestInertFaultScenarioReadsAsClean(t *testing.T) {
	sc, err := faultinject.Parse("read-error:after=1000000000", 1)
	if err != nil {
		t.Fatal(err)
	}
	var got [2]JoinSummary
	for i, cfg := range []Config{{}, {StoreFactory: sc.StoreFactory}} {
		svc := NewService(cfg)
		addDataset(t, svc, "a", transformers.GenerateUniform(20000, 1))
		addDataset(t, svc, "b", transformers.GenerateDenseCluster(20000, 2))
		out, err := svc.Join(context.Background(), "a", "b", JoinParams{Algorithm: engine.Transformers, Distance: 20, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		got[i] = out.Summary
	}
	if got[1].Results != got[0].Results || got[1].Reads != got[0].Reads || got[0].Results == 0 || got[0].Reads == 0 {
		t.Fatalf("inert faults: %d results from %d reads; clean stores: %d from %d",
			got[1].Results, got[1].Reads, got[0].Results, got[0].Reads)
	}
}

// TestEmitErrorReleasesSlot: a consumer failing in the middle of pair
// emission fails the join with its error and releases everything it held.
func TestEmitErrorReleasesSlot(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := NewService(Config{Workers: 2})
	elems := transformers.GenerateUniform(500, 223)
	addDataset(t, svc, "a", elems)

	_, err := svc.JoinStream(context.Background(), "a", "a", JoinParams{NoCache: true}, faultyConsumer(context.Background(), consumerFail, 20))
	if !errors.Is(err, errConsumerFailed) {
		t.Fatalf("err = %v, want the consumer's error", err)
	}
	waitPoolDrained(t, svc)
	checkGoroutines(t, before)
}

// TestStallAbortedByDeadline: a stalled consumer pins the emit path until the
// deadline cancels the request — then every slot and goroutine unwinds.
func TestStallAbortedByDeadline(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := NewService(Config{Workers: 2})
	elems := transformers.GenerateUniform(500, 224)
	addDataset(t, svc, "a", elems)

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := svc.JoinStream(ctx, "a", "a", JoinParams{NoCache: true}, faultyConsumer(ctx, consumerStall, 20))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("stalled join took %v to abort", d)
	}
	waitPoolDrained(t, svc)
	checkGoroutines(t, before)
}

// TestHealthzDegradedAfterShed: shed events flip /healthz to degraded (still
// HTTP 200 — degradation is a serving mode, not an outage) and age out.
func TestHealthzDegradedAfterShed(t *testing.T) {
	ts, svc := newTestServer(t, Config{Workers: 1, TenantQueue: 1, MaxQueue: -1, ShedWindow: time.Minute})
	if svc.Health().Status != "ok" {
		t.Fatalf("health before traffic = %+v", svc.Health())
	}

	// Saturate the one slot, queue one request, and overflow the tenant
	// queue with a second — driving the pool directly keeps this exact.
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 2)
	go func() {
		done <- svc.pool.Do(context.Background(), Request{Tenant: "noisy"}, func() error {
			close(started)
			<-release
			return nil
		})
	}()
	<-started
	go func() {
		done <- svc.pool.Do(context.Background(), Request{Tenant: "noisy"}, func() error { return nil })
	}()
	for svc.pool.Stats().Queued != 1 {
		time.Sleep(time.Millisecond)
	}
	if err := svc.pool.Do(context.Background(), Request{Tenant: "noisy"}, func() error { return nil }); !errors.Is(err, ErrShed) {
		t.Fatalf("overflow err = %v, want ErrShed", err)
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200 even when degraded", resp.StatusCode)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || len(h.Reasons) == 0 || !strings.Contains(h.Reasons[0], "noisy") {
		t.Fatalf("healthz = %+v, want degraded naming the shedding tenant", h)
	}
}

// TestHTTPTenantStats: the per-tenant counters surface in /stats keyed by the
// X-Tenant header.
func TestHTTPTenantStats(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	_ = svc
	req, err := http.NewRequest("POST", ts.URL+"/datasets",
		strings.NewReader(`{"name":"a","generate":{"kind":"uniform","n":300,"seed":231}}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", "alice")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("dataset registration = %d", resp.StatusCode)
	}

	sresp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var doc struct {
		Tenants map[string]TenantStats `json:"tenants"`
	}
	if err := json.NewDecoder(sresp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	al, ok := doc.Tenants["alice"]
	if !ok {
		t.Fatalf("stats tenants = %v, want alice", doc.Tenants)
	}
	if al.Admitted == 0 {
		t.Fatalf("alice admitted = %+v, want > 0", al)
	}
}

// chaosSeed resolves the chaos-matrix seed: CHAOS_SEED pins it, otherwise it
// is time-randomized. The chosen seed is logged and, when CHAOS_SEED_DIR is
// set, persisted for CI to upload on failure (the proptest seed idiom).
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	seed := time.Now().UnixNano()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	if dir := os.Getenv("CHAOS_SEED_DIR"); dir != "" {
		f, err := os.OpenFile(filepath.Join(dir, "chaos-seed.txt"),
			os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			t.Logf("could not persist seed: %v", err)
		} else {
			fmt.Fprintf(f, "%s: CHAOS_SEED=%d\n", t.Name(), seed)
			f.Close()
		}
	}
	t.Logf("chaos seed %d (reproduce with CHAOS_SEED=%d)", seed, seed)
	return seed
}

// TestChaosScenarios runs randomized fault scenarios through a full service
// and holds the resilience invariant: every join ends in correct results or
// a clean error within its deadline — never a hang, a leaked goroutine, a
// stranded slot, or a wrong pair set.
func TestChaosScenarios(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	before := runtime.NumGoroutine()

	elems := transformers.GenerateUniform(500, 241)
	for i := range elems {
		elems[i].Box = elems[i].Box.Expand(20)
	}
	want := naive.Join(elems, elems)

	ops := []string{faultinject.OpReadError, faultinject.OpWriteError, faultinject.OpSlowRead, faultinject.OpBuildFail}
	consumerFaults := []string{consumerClean: "clean", consumerFail: "fail", consumerStall: "stall"}
	const rounds = 4
	for round := 0; round < rounds; round++ {
		// 1-3 distinct fault ops per round, parameters drawn from the seed.
		perm := rng.Perm(len(ops))
		k := 1 + rng.Intn(3)
		chosen := make([]string, k)
		for i := 0; i < k; i++ {
			chosen[i] = ops[perm[i]]
		}
		spec := strings.Join(chosen, ",")
		scSeed := rng.Int63()
		sc, err := faultinject.Parse(spec, scSeed)
		if err != nil {
			t.Fatalf("round %d: Parse(%q): %v", round, spec, err)
		}
		t.Logf("round %d: scenario %v (spec %q, seed %d)", round, sc, spec, scSeed)

		svc := NewService(Config{Workers: 2, StoreFactory: sc.StoreFactory})
		// The consumer of the streamed join brings its own fault, drawn from
		// the same seed.
		fault, after := rng.Intn(len(consumerFaults)), rng.Intn(128)
		t.Logf("round %d: consumer %s after %d pairs", round, consumerFaults[fault], after)

		// Registration may fail cleanly under write/build faults; the
		// invariant is a typed error, not success.
		if _, err := svc.AddDataset(context.Background(), "d", append([]transformers.Element(nil), elems...)); err != nil {
			if !errors.Is(err, faultinject.ErrInjected) && !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("round %d: registration failed on something not injected: %v", round, err)
			}
			t.Logf("round %d: registration failed cleanly: %v", round, err)
			waitPoolDrained(t, svc)
			continue
		}

		// One collected join (storage faults active) and one streamed to the
		// faulty consumer (storage faults too), both deadline-bounded so a
		// stalled consumer cannot outlive its request.
		runs := []struct {
			label   string
			timeout time.Duration
			stream  bool
		}{
			{"collected", 5 * time.Second, false},
			{"consumer", 500 * time.Millisecond, true},
		}
		for _, r := range runs {
			ctx, cancel := context.WithTimeout(context.Background(), r.timeout)
			var got []transformers.Pair
			var err error
			if !r.stream {
				var out *JoinOutcome
				if out, err = svc.Join(ctx, "d", "d", JoinParams{NoCache: true}); err == nil {
					got = out.Pairs
				}
			} else {
				consume := faultyConsumer(ctx, fault, after)
				_, err = svc.JoinStream(ctx, "d", "d", JoinParams{NoCache: true}, func(p transformers.Pair) error {
					got = append(got, p)
					return consume(p)
				})
			}
			cancel()
			if err != nil {
				// A clean abort: an injected fault, the consumer's error, or
				// the deadline clearing a stall.
				if !errors.Is(err, faultinject.ErrInjected) && !errors.Is(err, errConsumerFailed) &&
					!errors.Is(err, context.DeadlineExceeded) {
					t.Fatalf("round %d %s: unclean error: %v", round, r.label, err)
				}
				t.Logf("round %d %s: clean error: %v", round, r.label, err)
				continue
			}
			if !naive.Equal(got, want) {
				t.Fatalf("round %d %s: wrong pair set: %d pairs, want %d",
					round, r.label, len(got), len(want))
			}
		}
		waitPoolDrained(t, svc)
	}
	checkGoroutines(t, before)
}
