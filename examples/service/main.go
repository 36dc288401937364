// Example service demonstrates the spatial query service end to end: it
// starts an in-process spatialjoind-equivalent HTTP server on a random port,
// then drives every endpoint the way an external client (or curl) would —
// dataset registration, repeated joins showing the result cache, a distance
// join, a streamed NDJSON join, and range queries against the built index.
//
// Run it with:
//
//	go run ./examples/service
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sort"
	"strings"
	"time"

	"repro/internal/server"
)

func post(base, path string, body string) map[string]any {
	resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
	if err != nil {
		log.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode >= 300 {
		log.Fatalf("POST %s: %s: %s", path, resp.Status, raw)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		log.Fatalf("POST %s: decode: %v", path, err)
	}
	return doc
}

func main() {
	// An in-process daemon: same Service + handler the spatialjoind binary
	// mounts, listening on an ephemeral port.
	svc := server.NewService(server.Config{Parallelism: -1})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.NewHandler(svc)}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	fmt.Println("spatialjoind serving at", base)

	// 1. Register datasets: one generated server-side, one uploaded.
	t0 := time.Now()
	doc := post(base, "/datasets", `{"name":"axons","generate":{"kind":"axons","n":20000,"seed":1}}`)
	fmt.Printf("built %q: %v elements, %v units, %v nodes in %v\n",
		doc["name"], doc["elements"], doc["units"], doc["nodes"], time.Since(t0).Round(time.Millisecond))
	post(base, "/datasets", `{"name":"dendrites","generate":{"kind":"dendrites","n":15000,"seed":2}}`)

	var buf bytes.Buffer
	buf.WriteString(`{"name":"probes","elements":[`)
	for i := 0; i < 3; i++ {
		if i > 0 {
			buf.WriteByte(',')
		}
		fmt.Fprintf(&buf, `{"id":%d,"box":{"lo":[%d,%d,800],"hi":[%d,%d,1000]}}`,
			i+1, 100*i, 100*i, 100*i+50, 100*i+50)
	}
	buf.WriteString(`]}`)
	post(base, "/datasets", buf.String())

	// 2. Join twice: the second run is served from the result cache.
	for run := 1; run <= 2; run++ {
		t := time.Now()
		doc = post(base, "/join", `{"a":"axons","b":"dendrites"}`)
		sum := doc["summary"].(map[string]any)
		fmt.Printf("join axons x dendrites #%d: %v pairs, cached=%v, %v\n",
			run, sum["results"], doc["cached"], time.Since(t).Round(time.Microsecond))
	}

	// 3. Planner-selected join: "auto" resolves the engine by the kernel
	// walls measured on the pair (a cold pair explores transformers first)
	// and reports the ranked prices.
	doc = post(base, "/join", `{"a":"axons","b":"dendrites","algorithm":"auto","no_cache":true}`)
	sum := doc["summary"].(map[string]any)
	plan := sum["planner"].(map[string]any)
	fmt.Printf("auto join: planner chose %v (%d engines scored)\n",
		sum["algorithm"], len(plan["scores"].([]any)))

	// 3b. Explicit engine: the same join through the TRANSFORMERS indexes the
	// catalog built at upload (the daemon serves transformers and inmem).
	doc = post(base, "/join", `{"a":"axons","b":"dendrites","algorithm":"transformers","no_cache":true}`)
	fmt.Printf("transformers join: %v pairs (indexes built at upload: no build_ms)\n",
		doc["summary"].(map[string]any)["results"])

	// 4. Distance join: pairs within 5 units (boxes enlarged by d/2, §VIII).
	doc = post(base, "/join/distance", `{"a":"axons","b":"dendrites","distance":5}`)
	fmt.Printf("distance join (d=5): %v pairs\n", doc["summary"].(map[string]any)["results"])

	// 5. Streaming NDJSON join: count the pair lines.
	resp, err := http.Post(base+"/join", "application/json",
		strings.NewReader(`{"a":"axons","b":"dendrites","stream":true}`))
	if err != nil {
		log.Fatal(err)
	}
	lines := 0
	var last string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		last = sc.Text()
	}
	resp.Body.Close()
	fmt.Printf("streamed join: %d pair lines + summary %s\n", lines-1, last)

	// 5b. Traced join: "trace": true (or an X-Trace: 1 header) echoes the
	// request's span tree — admission wait, planning, catalog access,
	// execution — alongside the summary. X-Request-ID is honored end to end.
	doc = post(base, "/join", `{"a":"axons","b":"dendrites","no_cache":true,"trace":true}`)
	fmt.Printf("traced join (request %v): span tree\n", doc["request_id"])
	if tr, ok := doc["trace"].(map[string]any); ok {
		fmt.Printf("  wall %.2fms\n", tr["wall_ms"])
		if spans, ok := tr["spans"].([]any); ok {
			printSpans(spans, 1)
		}
	}

	// 6. Range query against the built axons index.
	doc = post(base, "/query/range",
		`{"dataset":"axons","box":{"lo":[400,400,700],"hi":[600,600,900]}}`)
	stats := doc["stats"].(map[string]any)
	fmt.Printf("range query: %v elements, %v unit pages read\n", doc["results"], stats["units_read"])

	// 7. Health and service counters.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		log.Fatal(err)
	}
	hresp.Body.Close()
	fmt.Println("healthz:", hresp.Status)
	sresp, err := http.Get(base + "/stats")
	if err != nil {
		log.Fatal(err)
	}
	raw, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	var st map[string]any
	_ = json.Unmarshal(raw, &st)
	fmt.Printf("stats: joins=%v range_queries=%v cache=%v catalog=%v\n",
		st["joins"], st["range_queries"], st["cache"], st["catalog"])

	// 8. Observability surface: the Prometheus exposition and the planner's
	// prediction-vs-reality report.
	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	families := 0
	for _, line := range strings.Split(string(mraw), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families++
		}
	}
	fmt.Printf("metrics: %d families, %d bytes of exposition\n", families, len(mraw))
	presp, err := http.Get(base + "/debug/planner")
	if err != nil {
		log.Fatal(err)
	}
	praw, _ := io.ReadAll(presp.Body)
	presp.Body.Close()
	var pl map[string]any
	_ = json.Unmarshal(praw, &pl)
	if rep, ok := pl["report"].(map[string]any); ok {
		fmt.Printf("planner accuracy: %v samples recorded\n", rep["total"])
		if engines, ok := rep["engines"].([]any); ok {
			for _, e := range engines {
				em := e.(map[string]any)
				fmt.Printf("  %-18v samples=%v mean_rel_error=%.2f\n",
					em["engine"], em["samples"], em["mean_rel_error"])
			}
		}
	}
}

// printSpans renders a decoded span tree with durations and counters, one
// indented line per span.
func printSpans(spans []any, depth int) {
	for _, s := range spans {
		sm, ok := s.(map[string]any)
		if !ok {
			continue
		}
		line := fmt.Sprintf("%s%v %.2fms", strings.Repeat("  ", depth), sm["name"], sm["dur_ms"])
		if counters, ok := sm["counters"].(map[string]any); ok && len(counters) > 0 {
			keys := make([]string, 0, len(counters))
			for k := range counters {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				line += fmt.Sprintf(" %s=%v", k, counters[k])
			}
		}
		fmt.Println(line)
		if children, ok := sm["children"].([]any); ok {
			printSpans(children, depth+1)
		}
	}
}
