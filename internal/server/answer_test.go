package server

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime/metrics"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/transformers"
)

// raceEnabled reports a build with the race detector (set in race_test.go).
var raceEnabled bool

// TestCollectorBuffersOnlyForReaders: the pairs of a join are buffered for
// whoever reads them afterwards and for nobody else. A summary-only no_cache
// join (selective's request shape) buffers nothing; with the cache on it
// buffers the cache's flat copy and no more; a collecting caller finds the
// whole answer in the sink, in chunks when uncached; and the library Join
// still returns every pair either way.
func TestCollectorBuffersOnlyForReaders(t *testing.T) {
	svc := NewService(Config{})
	addDataset(t, svc, "a", bigOverlapDataset(600, 61))
	addDataset(t, svc, "b", bigOverlapDataset(600, 62))
	ctx := context.Background()

	lib, err := svc.Join(ctx, "a", "b", JoinParams{NoCache: true})
	if err != nil || len(lib.Pairs) == 0 || uint64(len(lib.Pairs)) != lib.Summary.Results {
		t.Fatalf("library Join: %d pairs for %d results, err %v", len(lib.Pairs), lib.Summary.Results, err)
	}
	results := len(lib.Pairs)
	if results <= pairChunkLen {
		t.Fatalf("fixture joins to %d pairs, want more than a chunk", results)
	}

	summary := &collector{}
	out, _, err := svc.join(ctx, "a", "b", JoinParams{NoCache: true}, summary)
	if err != nil || int(out.Summary.Results) != results {
		t.Fatalf("summary-only join: %+v, err %v", out, err)
	}
	if summary.keep || summary.len() != 0 || len(summary.chunks) != 0 {
		t.Fatalf("a summary-only no_cache join buffered %d pairs in %d chunks", summary.len(), len(summary.chunks))
	}

	collected := &collector{collect: true}
	if _, _, err := svc.join(ctx, "a", "b", JoinParams{NoCache: true}, collected); err != nil {
		t.Fatal(err)
	}
	if collected.shared != nil || collected.len() != results || len(collected.chunks) != (results+pairChunkLen-1)/pairChunkLen {
		t.Fatalf("uncached collected join: %d pairs in %d chunks, shared=%v", collected.len(), len(collected.chunks), collected.shared != nil)
	}
	got := collected.pairs()
	collected.release()
	if len(got) != results || cap(got) != results || collected.len() != 0 {
		t.Fatalf("pairs() made %d pairs (cap %d) of %d; %d left after release", len(got), cap(got), results, collected.len())
	}
	for i := range got {
		if got[i] != lib.Pairs[i] {
			t.Fatalf("pair %d: sink has %+v, library Join returned %+v", i, got[i], lib.Pairs[i])
		}
	}

	// Cache on: the fill is the one flat copy, chunks given back, and both a
	// collecting caller and the next hit read that very slice.
	fill := &collector{}
	if _, _, err := svc.join(ctx, "a", "b", JoinParams{}, fill); err != nil {
		t.Fatal(err)
	}
	if len(fill.chunks) != 0 || len(fill.shared) != results {
		t.Fatalf("cache fill left %d chunks and a %d-pair flat copy", len(fill.chunks), len(fill.shared))
	}
	hit, err := svc.Join(ctx, "a", "b", JoinParams{})
	if err != nil || !hit.Cached || len(hit.Pairs) != results || &hit.Pairs[0] != &fill.shared[0] {
		t.Fatalf("cache hit: cached=%v, %d pairs, shares the filled slice: %v (err %v)", hit.Cached, len(hit.Pairs), err == nil && &hit.Pairs[0] == &fill.shared[0], err)
	}
}

// discardResponse is a ResponseWriter that counts the body and keeps nothing.
type discardResponse struct {
	header http.Header
	status int
	n      int
}

func (d *discardResponse) Header() http.Header { return d.header }
func (d *discardResponse) WriteHeader(s int)   { d.status = s }
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// TestCollectedJoinBytesBounded is the allocation guard of the collected
// path, in bytes the runtime counted rather than RSS the host reports: once
// warm, one collected transformers join over the catalog's prebuilt indexes —
// request decode to last body byte, on the spine's collect-heavy pair — may
// allocate twice its answer plus 1 MB. Before pages were read by reference,
// per-side scratch kept across joins and the body written from the
// collector's chunks, the same request allocated 14.4 MB for a 0.76 MB
// answer. The best of several joins is judged: under the race detector
// sync.Pool drops a quarter of what it is given.
func TestCollectedJoinBytesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two 30K-element indexes")
	}
	svc := NewService(Config{Parallelism: 1})
	addDataset(t, svc, "ax", transformers.GenerateAxons(32_000, 6))
	addDataset(t, svc, "dn", transformers.GenerateDendrites(24_000, 106))
	h := NewHandler(svc)
	const body = `{"a":"ax","b":"dn","distance":25,"include_pairs":true,"no_cache":true}`
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	join := func() (allocated uint64, bodyBytes int) {
		t.Helper()
		w := &discardResponse{header: http.Header{}}
		req := httptest.NewRequest(http.MethodPost, "/join/distance", strings.NewReader(body))
		metrics.Read(sample)
		before := sample[0].Value.Uint64()
		h.ServeHTTP(w, req)
		metrics.Read(sample)
		if w.status != http.StatusOK {
			t.Fatalf("collected join answered %d", w.status)
		}
		return sample[0].Value.Uint64() - before, w.n
	}
	for i := 0; i < 3; i++ {
		join() // indexes built, pools filled
	}
	out, err := svc.Join(context.Background(), "ax", "dn", JoinParams{Distance: 25, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	answer := uint64(len(out.Pairs)) * 16
	if answer < 500_000 {
		t.Fatalf("answer is %d bytes: not the heavy pair", answer)
	}
	best, bodyBytes := join()
	for i := 0; i < 9; i++ {
		if got, _ := join(); got < best {
			best = got
		}
	}
	bound := 2*answer + 1<<20
	t.Logf("answer %d B (%d pairs), body %d B, best of 10 warmed joins allocated %d B (bound %d)", answer, len(out.Pairs), bodyBytes, best, bound)
	if best > bound {
		t.Fatalf("a warmed collected join allocated %d bytes for a %d-byte answer, want at most 2x + 1 MB = %d", best, answer, bound)
	}
}

// TestSummaryJoinBytesBounded: a summary-only join — selective's request
// shape, a few hundred bytes of answer — allocates for its plan, its summary,
// its span tree and, at a distance, its view of each dataset's index, and for
// nothing the size of a dataset: on every served engine and auto, at distance
// 0 and 25, the median warmed request allocates at most 16 KB + 2 B per
// element of the two datasets, where one copy of them is 56 B per element.
// (With one 64 KB bufio.Writer made per response a join allocated ~90 KB, 85
// KB of them that buffer, and a daemon holding a constant 24 MB collected once
// a second for it.) Each request is measured alone and the median judged: a GC
// cycle empties the pools, so a few requests allocate their pooled buffers
// again. Under the race detector sync.Pool drops one Put in four on purpose; a
// transformers join takes three pooled objects (the 64 KB response writer and
// a scratch side per index, 250–350 KB each when made anew here), so only
// (3/4)³ ≈ 42 % of its requests find all three, and its rows judge the least
// request instead — a copy or a buffer made per request is still in every
// one. The inmem and auto rows pool the writer alone and keep the median. The
// datasets carry no delta: with one, a transformers join at d > 0 still grows a
// copy of the base for its delta sub-joins.
func TestSummaryJoinBytesBounded(t *testing.T) {
	svc := NewService(Config{Parallelism: 1})
	addDataset(t, svc, "a", transformers.GenerateUniform(2000, 1))
	addDataset(t, svc, "b", transformers.GenerateDenseCluster(2000, 2))
	type pair struct {
		a, b     string
		elements int
		distance float64
		reps     int
	}
	pairs := []pair{{"a", "b", 4000, 0, 101}, {"a", "b", 4000, 25, 101}}
	if !testing.Short() {
		addDataset(t, svc, "ax", transformers.GenerateAxons(32_000, 6))
		addDataset(t, svc, "dn", transformers.GenerateDendrites(24_000, 106))
		pairs = append(pairs, pair{"ax", "dn", 56_000, 25, 21})
	}
	h := NewHandler(svc)
	for _, algo := range append(ServedEngines(), AlgorithmAuto) {
		for _, p := range pairs {
			path, body := "/join", fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":%q,"no_cache":true}`, p.a, p.b, algo)
			if p.distance > 0 {
				path, body = "/join/distance", fmt.Sprintf(`{"a":%q,"b":%q,"algorithm":%q,"distance":%v,"no_cache":true}`, p.a, p.b, algo, p.distance)
			}
			t.Run(fmt.Sprintf("%s/%s-%s/d=%v", algo, p.a, p.b, p.distance), func(t *testing.T) {
				join := func() uint64 {
					w := &discardResponse{header: http.Header{}}
					req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
					allocated := allocatedBy(func() { h.ServeHTTP(w, req) })
					if w.status != http.StatusOK {
						t.Fatalf("join answered %d", w.status)
					}
					return allocated
				}
				join() // partition built, pools filled
				got := make([]uint64, p.reps)
				for i := range got {
					got[i] = join()
				}
				slices.Sort(got)
				judged, which := got[len(got)/2], "median"
				if raceEnabled && algo == engine.Transformers {
					judged, which = got[0], "least"
				}
				bound := uint64(16<<10 + 2*p.elements)
				t.Logf("a warmed summary-only join allocated %d B (%s of %d; least %d, median %d, max %d; bound %d)", judged, which, len(got), got[0], got[len(got)/2], got[len(got)-1], bound)
				if judged > bound {
					t.Fatalf("the %s warmed summary-only join allocated %d bytes, want at most %d: a response buffer or a dataset-sized allocation per request?", which, judged, bound)
				}
			})
		}
	}
}

// TestRegistrationCollectsOnce: POST /datasets forces one collection when the
// dataset is registered, so the heap goal the joins after it run under is
// sized to what stays resident and not to the decode and build scratch the
// last collection inside the registration happened to find live; a refused
// registration and a join force none. (What that is worth is a benchmark
// figure — stream-heavy's peak RSS, see CHANGES PR 21 — this holds the
// mechanism.)
func TestRegistrationCollectsOnce(t *testing.T) {
	h := NewHandler(NewService(Config{Parallelism: 1}))
	sample := []metrics.Sample{{Name: "/gc/cycles/forced:gc-cycles"}}
	forcedBy := func(path, body string, status int) uint64 {
		t.Helper()
		w := &discardResponse{header: http.Header{}}
		metrics.Read(sample)
		before := sample[0].Value.Uint64()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		metrics.Read(sample)
		if w.status != status {
			t.Fatalf("POST %s answered %d, want %d", path, w.status, status)
		}
		return sample[0].Value.Uint64() - before
	}
	for _, tc := range []struct {
		path, body string
		status     int
		forced     uint64
	}{
		{"/datasets", `{"name":"a","generate":{"kind":"uniform","n":2000,"seed":1}}`, http.StatusCreated, 1},
		{"/datasets", `{"name":"b","elements":[{"id":1,"box":{"lo":[0,0,0],"hi":[1,1,1]}}]}`, http.StatusCreated, 1},
		{"/datasets", `{"name":"c","elements":[{"id":1,"box":{"lo":[2,0,0],"hi":[1,1,1]}}]}`, http.StatusBadRequest, 0},
		{"/join", `{"a":"a","b":"b","no_cache":true}`, http.StatusOK, 0},
	} {
		if got := forcedBy(tc.path, tc.body, tc.status); got != tc.forced {
			t.Errorf("POST %s %s forced %d collections, want %d", tc.path, tc.body, got, tc.forced)
		}
	}
}
