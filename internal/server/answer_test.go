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
// whole answer in the sink, encoded in chunks when uncached — as many as its
// bytes need, every one but the last filled to within a pair — and the
// library Join still returns every pair either way.
func TestCollectorBuffersOnlyForReaders(t *testing.T) {
	svc := NewService(Config{})
	addDataset(t, svc, "a", bigOverlapDataset(1200, 61))
	addDataset(t, svc, "b", bigOverlapDataset(1200, 62))
	ctx := context.Background()

	lib, err := svc.Join(ctx, "a", "b", JoinParams{NoCache: true})
	if err != nil || len(lib.Pairs) == 0 || uint64(len(lib.Pairs)) != lib.Summary.Results {
		t.Fatalf("library Join: %d pairs for %d results, err %v", len(lib.Pairs), lib.Summary.Results, err)
	}
	results := len(lib.Pairs)

	summary := &collector{}
	out, _, err := svc.join(ctx, "a", "b", JoinParams{NoCache: true}, summary)
	if err != nil || int(out.Summary.Results) != results {
		t.Fatalf("summary-only join: %+v, err %v", out, err)
	}
	if summary.keep || summary.len() != 0 || len(summary.runs.chunks) != 0 {
		t.Fatalf("a summary-only no_cache join buffered %d pairs in %d chunks", summary.len(), len(summary.runs.chunks))
	}

	collected := &collector{collect: true}
	if _, _, err := svc.join(ctx, "a", "b", JoinParams{NoCache: true}, collected); err != nil {
		t.Fatal(err)
	}
	chunks, size := len(collected.runs.chunks), encodedSize(lib.Pairs)
	if chunks < 2 {
		t.Fatalf("fixture's answer encodes to %d bytes, want more than a chunk", size)
	}
	if collected.shared != nil || collected.len() != results || size > chunks*pairChunkBytes || size <= (chunks-1)*(pairChunkBytes-maxPairBytes) {
		t.Fatalf("uncached collected join: %d pairs in %d bytes and %d chunks, shared=%v", collected.len(), size, chunks, collected.shared != nil)
	}
	t.Logf("%d pairs in %d chunks: %.2f B a pair", results, chunks, float64(size)/float64(results))
	got := collected.pairs()
	collected.release()
	if len(got) != results || cap(got) != results || collected.len() != 0 || len(collected.runs.chunks) != 0 {
		t.Fatalf("pairs() made %d pairs (cap %d) of %d; %d pairs in %d chunks left after release", len(got), cap(got), results, collected.len(), len(collected.runs.chunks))
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
	if len(fill.runs.chunks) != 0 || len(fill.shared) != results {
		t.Fatalf("cache fill left %d chunks and a %d-pair flat copy", len(fill.runs.chunks), len(fill.shared))
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
// allocate no more than its answer takes encoded as the collector holds it
// (about a third of the 16 B a pair of a flat copy; the bound was twice the
// flat copy plus 1 MB while the collector held Pairs). Before pages were read
// by reference, per-side scratch kept across joins and the body written from
// the collector's chunks, the same request allocated 14.4 MB for a 0.76 MB
// answer. The best of several joins is judged: under the race detector
// sync.Pool drops a quarter of what it is given, and a side made anew alone
// outweighs the bound.
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
	if len(out.Pairs) < 30_000 {
		t.Fatalf("answer is %d pairs: not the heavy pair", len(out.Pairs))
	}
	answer := uint64(encodedSize(out.Pairs))
	reps := 10
	if raceEnabled {
		reps = 40 // a join takes five pooled objects: (3/4)^5 of them find all
	}
	best, bodyBytes := join()
	for i := 1; i < reps; i++ {
		if got, _ := join(); got < best {
			best = got
		}
	}
	t.Logf("answer %d B encoded (%d pairs, %.2f B a pair), body %d B, best of %d warmed joins allocated %d B", answer, len(out.Pairs), float64(answer)/float64(len(out.Pairs)), bodyBytes, reps, best)
	if best > answer {
		t.Fatalf("a warmed collected join allocated %d bytes for a %d-byte encoded answer, want at most that", best, answer)
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
