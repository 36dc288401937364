package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/naive"
	"repro/transformers"
)

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Service) {
	t.Helper()
	svc := NewService(cfg)
	ts := httptest.NewServer(NewHandler(svc))
	t.Cleanup(ts.Close)
	return ts, svc
}

func postJSON(t *testing.T, url, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if len(raw) > 0 {
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("decode %q: %v", raw, err)
		}
	}
	return resp.StatusCode, doc
}

// TestHTTPBuildOnceQueryMany registers datasets once and issues many joins
// and range queries: every request is answered from the cataloged indexes,
// with exactly one build per dataset.
func TestHTTPBuildOnceQueryMany(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	a := transformers.GenerateUniform(2000, 31)
	b := transformers.GenerateDenseCluster(2000, 32)
	want := naive.Join(a, b)

	code, doc := postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"uniform","n":2000,"seed":31}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST /datasets = %d: %v", code, doc)
	}
	if doc["elements"].(float64) != 2000 || doc["units"].(float64) == 0 {
		t.Fatalf("build info incomplete: %v", doc)
	}
	code, _ = postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"dense_cluster","n":2000,"seed":32}}`)
	if code != http.StatusCreated {
		t.Fatalf("POST /datasets b = %d", code)
	}

	for i := 0; i < 5; i++ {
		code, doc = postJSON(t, ts.URL+"/join", `{"a":"a","b":"b","no_cache":true}`)
		if code != http.StatusOK {
			t.Fatalf("POST /join = %d: %v", code, doc)
		}
		sum := doc["summary"].(map[string]any)
		if int(sum["results"].(float64)) != len(want) {
			t.Fatalf("join %d: results = %v, want %d", i, sum["results"], len(want))
		}
		code, doc = postJSON(t, ts.URL+"/query/range",
			`{"dataset":"a","box":{"lo":[100,100,100],"hi":[300,300,300]}}`)
		if code != http.StatusOK {
			t.Fatalf("POST /query/range = %d: %v", code, doc)
		}
	}
	if got := svc.Catalog().Stats().Builds; got != 2 {
		t.Fatalf("builds = %d after many queries, want 2", got)
	}
}

// TestHTTPJoinCacheHit checks the cache hit path end to end: identical join
// requests are served from the LRU with cached=true and identical pairs.
func TestHTTPJoinCacheHit(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"uniform","n":1500,"seed":41}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":1500,"seed":42}}`)

	code, first := postJSON(t, ts.URL+"/join", `{"a":"a","b":"b","include_pairs":true}`)
	if code != http.StatusOK || first["cached"] != false {
		t.Fatalf("first join: code=%d cached=%v", code, first["cached"])
	}
	code, second := postJSON(t, ts.URL+"/join", `{"a":"a","b":"b","include_pairs":true}`)
	if code != http.StatusOK || second["cached"] != true {
		t.Fatalf("second join: code=%d cached=%v", code, second["cached"])
	}
	p1, _ := json.Marshal(first["pairs"])
	p2, _ := json.Marshal(second["pairs"])
	if !bytes.Equal(p1, p2) {
		t.Fatal("cached pairs differ from computed pairs")
	}
	cs := svc.Stats().Cache
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit / 1 miss", cs)
	}
	// The reversed pair (b,a) is a different key (orientation matters).
	code, rev := postJSON(t, ts.URL+"/join", `{"a":"b","b":"a"}`)
	if code != http.StatusOK || rev["cached"] != false {
		t.Fatalf("reversed join: code=%d cached=%v", code, rev["cached"])
	}
}

// TestHTTPStreamNDJSON checks the streaming join output: one JSON pair per
// line, a final summary line, and a pair set identical to the naive join.
func TestHTTPStreamNDJSON(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	a := transformers.GenerateUniform(1800, 51)
	b := transformers.GenerateDenseCluster(1800, 52)
	want := naive.Join(a, b)

	postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"uniform","n":1800,"seed":51}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"dense_cluster","n":1800,"seed":52}}`)

	resp, err := http.Post(ts.URL+"/join", "application/json",
		strings.NewReader(`{"a":"a","b":"b","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var pairs []transformers.Pair
	var summaryLine string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, `"summary"`) {
			summaryLine = line
			continue
		}
		var p struct{ A, B uint64 }
		if err := json.Unmarshal([]byte(line), &p); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		pairs = append(pairs, transformers.Pair{A: p.A, B: p.B})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if summaryLine == "" {
		t.Fatal("stream missing summary line")
	}
	var tail struct {
		Summary JoinSummary `json:"summary"`
	}
	if err := json.Unmarshal([]byte(summaryLine), &tail); err != nil {
		t.Fatal(err)
	}
	if int(tail.Summary.Results) != len(want) {
		t.Fatalf("summary results = %d, want %d", tail.Summary.Results, len(want))
	}
	if !naive.Equal(pairs, want) {
		t.Fatalf("streamed pair set disagrees with naive: %d vs %d", len(pairs), len(want))
	}
}

// TestHTTPDistanceJoin checks /join/distance against the naive expanded join
// and the endpoints' parameter validation.
func TestHTTPDistanceJoin(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	a := transformers.GenerateUniform(1200, 61)
	b := transformers.GenerateUniform(1200, 62)
	const d = 6.0
	ea := geom.ExpandedForDistance(a, d)
	eb := geom.ExpandedForDistance(b, d)
	want := naive.Join(ea, eb)

	postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"uniform","n":1200,"seed":61}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":1200,"seed":62}}`)

	code, doc := postJSON(t, ts.URL+"/join/distance", fmt.Sprintf(`{"a":"a","b":"b","distance":%g}`, d))
	if code != http.StatusOK {
		t.Fatalf("POST /join/distance = %d: %v", code, doc)
	}
	if got := int(doc["summary"].(map[string]any)["results"].(float64)); got != len(want) {
		t.Fatalf("distance join results = %d, want %d", got, len(want))
	}
	if code, _ = postJSON(t, ts.URL+"/join/distance", `{"a":"a","b":"b"}`); code != http.StatusBadRequest {
		t.Fatalf("missing distance accepted: %d", code)
	}
	if code, _ = postJSON(t, ts.URL+"/join", `{"a":"a","b":"b","distance":3}`); code != http.StatusBadRequest {
		t.Fatalf("distance on /join accepted: %d", code)
	}
}

// TestHTTPRangeEndpoint validates /query/range (plain and streaming) against
// a naive scan of the same generated dataset.
func TestHTTPRangeEndpoint(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	elems := transformers.GenerateMassiveCluster(2500, 71)
	postJSON(t, ts.URL+"/datasets", `{"name":"ds","generate":{"kind":"massive_cluster","n":2500,"seed":71}}`)
	q := transformers.Box{Lo: transformers.Point{300, 300, 300}, Hi: transformers.Point{650, 650, 650}}
	var want int
	for _, e := range elems {
		if e.Box.Intersects(q) {
			want++
		}
	}

	body := `{"dataset":"ds","box":{"lo":[300,300,300],"hi":[650,650,650]}}`
	code, doc := postJSON(t, ts.URL+"/query/range", body)
	if code != http.StatusOK {
		t.Fatalf("POST /query/range = %d: %v", code, doc)
	}
	if int(doc["results"].(float64)) != want {
		t.Fatalf("range results = %v, want %d", doc["results"], want)
	}
	if got := len(doc["elements"].([]any)); got != want {
		t.Fatalf("range returned %d elements, want %d", got, want)
	}

	resp, err := http.Post(ts.URL+"/query/range", "application/json",
		strings.NewReader(`{"dataset":"ds","box":{"lo":[300,300,300],"hi":[650,650,650]},"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
	}
	if lines != want+1 { // elements + summary
		t.Fatalf("stream lines = %d, want %d", lines, want+1)
	}
}

// TestHTTPErrors covers status-code mapping: 404 unknown dataset, 400 bad
// bodies, 405 wrong method.
func TestHTTPErrors(t *testing.T) {
	ts, _ := newTestServer(t, Config{})
	if code, _ := postJSON(t, ts.URL+"/join", `{"a":"ghost","b":"ghost"}`); code != http.StatusNotFound {
		t.Fatalf("unknown dataset join = %d, want 404", code)
	}
	if code, _ := postJSON(t, ts.URL+"/query/range", `{"dataset":"ghost","box":{"lo":[0,0,0],"hi":[1,1,1]}}`); code != http.StatusNotFound {
		t.Fatalf("unknown dataset range = %d, want 404", code)
	}
	if code, _ := postJSON(t, ts.URL+"/datasets", `{"name":""}`); code != http.StatusBadRequest {
		t.Fatalf("empty name = %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/datasets", `not json`); code != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/datasets", `{"name":"x","generate":{"kind":"nope","n":5}}`); code != http.StatusBadRequest {
		t.Fatalf("bad generator = %d, want 400", code)
	}
	if code, _ := postJSON(t, ts.URL+"/query/range", `{"dataset":"x","box":{"lo":[5,5,5],"hi":[1,1,1]}}`); code != http.StatusBadRequest {
		t.Fatalf("invalid box = %d, want 400", code)
	}
	// Resource caps: oversized generation 400s, oversized bodies 413.
	tsCap, _ := newTestServer(t, Config{MaxGenerateElements: 100, MaxBodyBytes: 256})
	if code, _ := postJSON(t, tsCap.URL+"/datasets", `{"name":"big","generate":{"kind":"uniform","n":101,"seed":1}}`); code != http.StatusBadRequest {
		t.Fatalf("over-cap generate = %d, want 400", code)
	}
	big := `{"name":"big","elements":[` + strings.Repeat(`{"id":1,"box":{"lo":[0,0,0],"hi":[1,1,1]}},`, 10) + `{"id":2,"box":{"lo":[0,0,0],"hi":[1,1,1]}}]}`
	if code, _ := postJSON(t, tsCap.URL+"/datasets", big); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", code)
	}

	resp, err := http.Get(ts.URL + "/join")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /join = %d, want 405", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
}

// TestHTTPConcurrentRequests drives the full HTTP stack with concurrent join
// and range traffic on shared datasets (the -race serving gate at the
// transport layer).
func TestHTTPConcurrentRequests(t *testing.T) {
	ts, svc := newTestServer(t, Config{Workers: 4})
	a := transformers.GenerateUniform(1200, 81)
	b := transformers.GenerateUniform(1200, 82)
	want := len(naive.Join(a, b))
	postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"uniform","n":1200,"seed":81}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":1200,"seed":82}}`)

	var wg sync.WaitGroup
	for range 6 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				code, doc := postJSON(t, ts.URL+"/join",
					fmt.Sprintf(`{"a":"a","b":"b","no_cache":%v}`, i%2 == 0))
				if code != http.StatusOK {
					t.Errorf("join = %d: %v", code, doc)
					return
				}
				if got := int(doc["summary"].(map[string]any)["results"].(float64)); got != want {
					t.Errorf("join results = %d, want %d", got, want)
					return
				}
				code, _ = postJSON(t, ts.URL+"/query/range",
					`{"dataset":"b","box":{"lo":[100,100,100],"hi":[400,400,400]}}`)
				if code != http.StatusOK {
					t.Errorf("range = %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := svc.Catalog().Stats().Builds; got != 2 {
		t.Fatalf("builds = %d, want 2", got)
	}
}

// TestHTTPJoinRefusesParallelism: a served join runs on one worker, so a
// body that still sends "parallelism" is refused as an unknown field — a 400
// naming it, before planning or admission: no join counted, no slot taken.
func TestHTTPJoinRefusesParallelism(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/datasets", `{"name":"a","generate":{"kind":"uniform","n":200,"seed":1}}`)
	postJSON(t, ts.URL+"/datasets", `{"name":"b","generate":{"kind":"uniform","n":200,"seed":2}}`)
	before := svc.Stats().Pool.Tenants[DefaultTenant].Admitted

	code, doc := postJSON(t, ts.URL+"/join", `{"a":"a","b":"b","parallelism":2}`)
	if code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400: %v", code, doc)
	}
	if msg, _ := doc["error"].(string); !strings.Contains(msg, `"parallelism"`) {
		t.Fatalf("error = %q, want it to name the parallelism field", msg)
	}
	st := svc.Stats()
	if st.Joins != 0 {
		t.Fatalf("joins = %d, want 0: a refused body must not be planned", st.Joins)
	}
	if got := st.Pool.Tenants[DefaultTenant].Admitted; got != before || st.Pool.Active != 0 || st.Pool.Queued != 0 {
		t.Fatalf("pool after a refused body: admitted %d (was %d), %+v", got, before, st.Pool)
	}
}

// TestHTTPGracefulShutdown starts a real http.Server, fires eight streamed
// joins, and shuts down once the pool has admitted all of them: every one
// must stream to its end — a 200 and a trailer that is not aborted —
// Shutdown must return cleanly, and new connections must be refused
// afterwards.
func TestHTTPGracefulShutdown(t *testing.T) {
	svc := NewService(Config{Workers: 8})
	srv := &http.Server{Handler: NewHandler(svc)}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	for _, body := range []string{
		`{"name":"a","generate":{"kind":"uniform","n":20000,"seed":91}}`,
		`{"name":"b","generate":{"kind":"uniform","n":20000,"seed":92}}`,
	} {
		resp, err := http.Post(base+"/datasets", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	admitted := func() uint64 { p := svc.Stats().Pool; return uint64(p.Active) + p.Completed }
	before := admitted()

	// In-flight traffic while Shutdown runs: distance joins of ~27K pairs
	// each, streamed.
	var wg sync.WaitGroup
	results := make([]string, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, err := http.Post(base+"/join/distance", "application/json",
				strings.NewReader(`{"a":"a","b":"b","distance":40,"no_cache":true,"stream":true}`))
			if err != nil {
				results[i] = err.Error()
				return
			}
			defer r.Body.Close()
			body, err := io.ReadAll(r.Body)
			lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
			var tr streamTrailer
			switch {
			case err != nil:
				results[i] = err.Error()
			case r.StatusCode != http.StatusOK:
				results[i] = r.Status
			case json.Unmarshal(lines[len(lines)-1], &tr) != nil || tr.Aborted || tr.Pairs == 0 || tr.Pairs != len(lines)-1:
				results[i] = fmt.Sprintf("stream cut: %d lines, last %.100q", len(lines), lines[len(lines)-1])
			}
		}(i)
	}
	// Every stream admitted: all eight started before Shutdown, and the drain
	// must let each finish.
	for deadline := time.Now().Add(30 * time.Second); admitted() < before+8; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 8 streams admitted after 30 s", admitted()-before)
		}
	}
	shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shCtx); err != nil {
		t.Fatalf("graceful shutdown failed: %v", err)
	}
	wg.Wait()
	if err := <-done; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want ErrServerClosed", err)
	}
	for i, res := range results {
		if res != "" {
			t.Errorf("stream %d did not survive the graceful drain: %s", i, res)
		}
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after shutdown")
	}
}
