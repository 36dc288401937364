// Serving-layer streaming tests: the NDJSON join path must deliver pairs
// under backpressure with bounded server-side buffering, replay cache hits,
// count its activity in /stats, and — when the consumer goes away
// mid-stream — abort the underlying join, observe context.Canceled, and
// release the pool slot.
package server

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/transformers"
)

// bigOverlapDataset builds n uniformly spread boxes grown enough that a
// cross join of two draws yields a large result (~n²·0.027 pairs) — the
// streaming tests need results far larger than any server-side buffer.
func bigOverlapDataset(n int, seed int64) []transformers.Element {
	return grownUniform(n, 75, seed)
}

// stripedDataset builds n uniformly spread boxes grown by 40: two draws of
// 5000 make ~90K pairs and an inmem partition of three stripes (the stripe
// count is sized on 56 B an element against inmem.DefaultCacheBytes, so
// bigOverlapDataset's fewer, larger boxes make one), and an inmem join at
// Parallelism 2 or 3 over it runs that many workers emitting at once.
func stripedDataset(n int, seed int64) []transformers.Element {
	return grownUniform(n, 40, seed)
}

func grownUniform(n int, grow float64, seed int64) []transformers.Element {
	elems := transformers.GenerateUniform(n, seed)
	for i := range elems {
		elems[i].Box = elems[i].Box.Expand(grow)
	}
	return elems
}

// requireStripes fails the test unless the resident inmem partition of a×b
// has at least want stripes, so that a join over it at Parallelism want runs
// want workers.
func requireStripes(t *testing.T, svc *Service, a, b string, want int) {
	t.Helper()
	h, err := svc.cat.AcquirePartition(context.Background(), a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	got := h.Partition.Stripes()
	if got < want {
		t.Fatalf("the inmem partition of %s x %s has %d stripes, want at least %d: the join would not run %d workers", a, b, got, want, want)
	}
	t.Logf("the inmem partition of %s x %s has %d stripes", a, b, got)
}

func addDataset(t *testing.T, svc *Service, name string, elems []transformers.Element) {
	t.Helper()
	if _, err := svc.AddDataset(context.Background(), name, elems); err != nil {
		t.Fatalf("AddDataset(%s): %v", name, err)
	}
}

// TestServiceJoinStreamMatchesJoin pins what the single join path must not
// lose, for every executeJoin branch: collected and streamed answers are
// multiset-equal to naive on a miss and on a hit, whichever of the two filled
// the cache; a collected hit hands out the cached slice itself; and the
// streaming counters move for streamed joins only.
func TestServiceJoinStreamMatchesJoin(t *testing.T) {
	baseA, baseB := overlapElems(600, 61, 1), overlapElems(600, 62, 1)
	deltaA, deltaB := overlapElems(80, 63, 1<<20), overlapElems(60, 64, 1<<20)
	cases := []struct {
		name, algo string
		delta      bool
	}{
		{"transformers", engine.Transformers, false},
		{"transformers+delta", engine.Transformers, true},
		{"inmem+delta", engine.InMem, true},
	}
	ctx := context.Background()
	for _, tc := range cases {
		for _, first := range []string{"collected", "streamed"} {
			t.Run(tc.name+"/"+first+"-first", func(t *testing.T) {
				// Automatic merges off: a delta stays a delta for the whole case.
				svc := NewService(Config{DeltaMaxElements: -1})
				addDataset(t, svc, "a", cpElems(baseA))
				addDataset(t, svc, "b", cpElems(baseB))
				allA, allB := baseA, baseB
				if tc.delta {
					if _, err := svc.Append(ctx, "a", cpElems(deltaA)); err != nil {
						t.Fatal(err)
					}
					if _, err := svc.Append(ctx, "b", cpElems(deltaB)); err != nil {
						t.Fatal(err)
					}
					allA, allB = append(cpElems(baseA), deltaA...), append(cpElems(baseB), deltaB...)
				}
				want := naiveRef(allA, allB, 0)
				if len(want) == 0 {
					t.Fatal("workload has no pairs")
				}
				p := JoinParams{Algorithm: tc.algo}
				var streams uint64
				join := func(mode string, cached bool) *JoinOutcome {
					t.Helper()
					var got []transformers.Pair
					var out *JoinOutcome
					var err error
					if mode == "collected" {
						out, err = svc.Join(ctx, "a", "b", p)
						if err == nil {
							got = out.Pairs
						}
					} else {
						streams++
						out, err = svc.JoinStream(ctx, "a", "b", p,
							func(pr transformers.Pair) error { got = append(got, pr); return nil })
						if err == nil && out.Pairs != nil {
							t.Fatal("streaming outcome materialized pairs")
						}
					}
					if err != nil {
						t.Fatal(err)
					}
					if out.Cached != cached {
						t.Fatalf("%s: cached = %v, want %v", mode, out.Cached, cached)
					}
					if !pairsMatch(got, want) || out.Summary.Results != uint64(len(want)) {
						t.Fatalf("%s (cached %v): %d pairs, summary %d, naive has %d", mode, cached, len(got), out.Summary.Results, len(want))
					}
					if tc.delta && (out.Summary.Delta == nil || out.Summary.Delta.ElementsA != len(deltaA)) {
						t.Fatalf("%s: delta summary %+v", mode, out.Summary.Delta)
					}
					return out
				}
				join(first, false)
				hit1, hit2 := join("collected", true), join("collected", true)
				if &hit1.Pairs[0] != &hit2.Pairs[0] {
					t.Fatal("collected cache hits copied the cached pairs")
				}
				if st := svc.Stats(); first == "collected" && (st.StreamedPairs != 0 || st.AbortedStreams != 0) {
					t.Fatalf("collected joins moved the streaming counters: %d pairs, %d aborts", st.StreamedPairs, st.AbortedStreams)
				}
				join("streamed", true)
				st := svc.Stats()
				if st.StreamedPairs != streams*uint64(len(want)) || st.AbortedStreams != 0 {
					t.Fatalf("streamed_pairs = %d (want %d), aborted_streams = %d", st.StreamedPairs, streams*uint64(len(want)), st.AbortedStreams)
				}
			})
		}
	}

	// Over the cache's per-entry threshold a collected result still comes
	// back whole, a streamed one still streams whole, and neither is cached:
	// the next request is a miss again.
	svc := NewService(Config{CacheMaxPairs: 10})
	addDataset(t, svc, "a", cpElems(baseA))
	addDataset(t, svc, "b", cpElems(baseB))
	want := naiveRef(baseA, baseB, 0)
	for i := 0; i < 2; i++ {
		out, err := svc.Join(ctx, "a", "b", JoinParams{})
		if err != nil || out.Cached || !pairsMatch(out.Pairs, want) {
			t.Fatalf("collected over threshold, round %d: err %v, cached %v, %d of %d pairs", i, err, out != nil && out.Cached, len(out.Pairs), len(want))
		}
		var got []transformers.Pair
		out, err = svc.JoinStream(ctx, "a", "b", JoinParams{}, func(pr transformers.Pair) error { got = append(got, pr); return nil })
		if err != nil || out.Cached || !pairsMatch(got, want) {
			t.Fatalf("streamed over threshold, round %d: err %v, cached %v, %d of %d pairs", i, err, out != nil && out.Cached, len(got), len(want))
		}
		if n := svc.Stats().Cache.Entries; n != 0 {
			t.Fatalf("round %d: %d cache entries for an over-threshold result", i, n)
		}
	}
}

// TestServiceStreamDisconnectCancelsJoin: a consumer that cancels its
// context mid-stream (the service-level picture of a client disconnect) must
// get context.Canceled back, free its pool slot, and bump aborted_streams —
// and so must one whose emit fails while three inmem workers are emitting.
func TestServiceStreamDisconnectCancelsJoin(t *testing.T) {
	svc := NewService(Config{CacheMaxPairs: 100})
	addDataset(t, svc, "a", stripedDataset(5000, 71))
	addDataset(t, svc, "b", stripedDataset(5000, 72))
	requireStripes(t, svc, "a", "b", 3)

	for _, algo := range ServedEngines() {
		ctx, cancel := context.WithCancel(context.Background())
		n := 0
		_, err := svc.JoinStream(ctx, "a", "b",
			JoinParams{NoCache: true, Algorithm: algo, Parallelism: 3},
			func(transformers.Pair) error {
				n++
				if n == 40 {
					cancel()
				}
				return nil
			})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: disconnected stream returned %v, want context.Canceled", algo, err)
		}
	}

	// An emit error (write failure) must abort the same way.
	sentinel := errors.New("consumer write failed")
	_, err := svc.JoinStream(context.Background(), "a", "b",
		JoinParams{NoCache: true, Algorithm: engine.InMem, Parallelism: 3},
		func(transformers.Pair) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("emit error: got %v, want sentinel", err)
	}

	st := svc.Stats()
	if st.AbortedStreams != 3 {
		t.Fatalf("aborted_streams = %d, want 3", st.AbortedStreams)
	}
	if st.Pool.Active != 0 || st.Pool.Queued != 0 {
		t.Fatalf("pool not drained after aborts: %+v", st.Pool)
	}
	// The slots really are free: a fresh join must be admitted and succeed.
	if _, err := svc.Join(context.Background(), "a", "b",
		JoinParams{NoCache: true, Algorithm: engine.InMem}); err != nil {
		t.Fatalf("join after aborted streams: %v", err)
	}
}

// TestHTTPStreamBackpressureSlowReader: a large NDJSON join read by a slow
// client must complete without unbounded server-side buffering — the result
// is far over the cache threshold, so the only unbounded place it could sit
// is a response buffer; the join runs on two inmem workers, whose emits the
// engine serializes. The stream must deliver every pair and close with the
// summary line.
func TestHTTPStreamBackpressureSlowReader(t *testing.T) {
	// CacheMaxPairs 500: the ~100K-pair result must not be pinned in memory
	// by the cache tee either.
	ts, svc := newTestServer(t, Config{CacheMaxPairs: 500, Parallelism: 2})
	addDataset(t, svc, "a", stripedDataset(5000, 81))
	addDataset(t, svc, "b", stripedDataset(5000, 82))
	requireStripes(t, svc, "a", "b", 2)

	want, err := svc.Join(context.Background(), "a", "b",
		JoinParams{NoCache: true, Algorithm: engine.InMem})
	if err != nil {
		t.Fatal(err)
	}
	if want.Summary.Results < 50_000 {
		t.Fatalf("workload too small for a backpressure test: %d pairs", want.Summary.Results)
	}
	t.Logf("%d pairs", want.Summary.Results)

	resp, err := http.Post(ts.URL+"/join", "application/json",
		strings.NewReader(`{"a":"a","b":"b","stream":true,"no_cache":true,"algorithm":"inmem"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// Slow consumer: small reads with periodic stalls, so TCP flow control
	// pushes back into the handler's writes while the join is running.
	var raw []byte
	buf := make([]byte, 4096)
	reads := 0
	for {
		n, err := resp.Body.Read(buf)
		raw = append(raw, buf[:n]...)
		reads++
		if reads%32 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
	if len(lines) == 0 || !strings.Contains(lines[len(lines)-1], `"summary"`) {
		t.Fatal("stream did not end with a summary line")
	}
	if got := uint64(len(lines) - 1); got != want.Summary.Results {
		t.Fatalf("streamed %d pairs, collected join has %d", got, want.Summary.Results)
	}
	st := svc.Stats()
	if st.Cache.Entries != 0 {
		t.Fatalf("over-threshold result was cached (%d entries)", st.Cache.Entries)
	}
	if st.StreamedPairs < want.Summary.Results {
		t.Fatalf("streamed_pairs = %d, want >= %d", st.StreamedPairs, want.Summary.Results)
	}
}

// faultyWriter is a client connection as the handler sees it, with the
// faults a client can inject where the pairs leave the service: the write that
// takes the response past stallAfter bytes first blocks in stall (once), and
// every write past failAfter bytes fails — cancelling the request, when cancel
// is set, as net/http does when the peer vanishes. A nil stall or a zero
// failAfter disables that fault. The accepted bytes are kept in body.
type faultyWriter struct {
	hdr        http.Header
	status     int
	body       bytes.Buffer
	written    int
	stallAfter int
	stall      func()
	failAfter  int
	cancel     context.CancelFunc
	failed     atomic.Bool
}

func (w *faultyWriter) Header() http.Header {
	if w.hdr == nil {
		w.hdr = make(http.Header)
	}
	return w.hdr
}
func (w *faultyWriter) WriteHeader(status int) { w.status = status }
func (w *faultyWriter) Flush()                 {}
func (w *faultyWriter) Write(p []byte) (int, error) {
	w.written += len(p)
	if w.stall != nil && w.written > w.stallAfter {
		stall := w.stall
		w.stall = nil
		stall()
	}
	if w.failAfter > 0 && w.written > w.failAfter {
		w.failed.Store(true)
		if w.cancel != nil {
			w.cancel()
		}
		return 0, fmt.Errorf("write tcp: broken pipe")
	}
	return w.body.Write(p)
}

// TestHTTPStreamClientDisconnect: a mid-stream disconnect (failing writes +
// canceled request context) under three emitting inmem workers must abort
// the underlying join, release the pool slot, and count one aborted stream.
func TestHTTPStreamClientDisconnect(t *testing.T) {
	svc := NewService(Config{CacheMaxPairs: 100})
	addDataset(t, svc, "a", stripedDataset(5000, 91))
	addDataset(t, svc, "b", stripedDataset(5000, 92))
	requireStripes(t, svc, "a", "b", 3)
	h := NewHandler(svc)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/join",
		strings.NewReader(`{"a":"a","b":"b","stream":true,"no_cache":true,"algorithm":"inmem","parallelism":3}`)).
		WithContext(ctx)
	w := &faultyWriter{failAfter: 128 << 10, cancel: cancel}
	h.ServeHTTP(w, req) // must return despite the gone client

	if !w.failed.Load() {
		t.Fatal("writer never failed — result too small to exercise a mid-stream disconnect")
	}
	st := svc.Stats()
	if st.AbortedStreams != 1 {
		t.Fatalf("aborted_streams = %d, want 1", st.AbortedStreams)
	}
	if st.Pool.Active != 0 || st.Pool.Queued != 0 {
		t.Fatalf("pool slot not released after disconnect: %+v", st.Pool)
	}
	if _, err := svc.Join(context.Background(), "a", "b",
		JoinParams{NoCache: true, Algorithm: engine.InMem}); err != nil {
		t.Fatalf("join after disconnect: %v", err)
	}
}

// TestHTTPStreamZeroPairs: a streaming join with an empty result must still
// answer 200 with the NDJSON summary as its only line.
func TestHTTPStreamZeroPairs(t *testing.T) {
	ts, svc := newTestServer(t, Config{})
	// Provably disjoint datasets: every a-box sits far below every b-box.
	var a, b []transformers.Element
	for i := 0; i < 40; i++ {
		f := float64(i)
		a = append(a, transformers.Element{ID: uint64(i), Box: transformers.Box{
			Lo: [3]float64{f, f, 1}, Hi: [3]float64{f + 0.5, f + 0.5, 2}}})
		b = append(b, transformers.Element{ID: uint64(i), Box: transformers.Box{
			Lo: [3]float64{f, f, 900}, Hi: [3]float64{f + 0.5, f + 0.5, 901}}})
	}
	addDataset(t, svc, "a", a)
	addDataset(t, svc, "b", b)
	resp, err := http.Post(ts.URL+"/join", "application/json",
		strings.NewReader(`{"a":"a","b":"b","stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	body, _ := io.ReadAll(resp.Body)
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	if len(lines) != 1 || !strings.Contains(lines[0], `"summary"`) {
		t.Fatalf("zero-pair stream = %q, want single summary line", string(body))
	}
}
