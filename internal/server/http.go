package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/engine/planner"
	"repro/internal/geom"
	"repro/internal/obs"
	"repro/transformers"
)

// HTTP wire types. Geometry uses lowercase lo/hi triples so curl bodies stay
// hand-writable.

type boxDTO struct {
	Lo [geom.Dims]float64 `json:"lo"`
	Hi [geom.Dims]float64 `json:"hi"`
}

func (b boxDTO) box() transformers.Box {
	return transformers.Box{Lo: b.Lo, Hi: b.Hi}
}

func toBoxDTO(b transformers.Box) boxDTO { return boxDTO{Lo: b.Lo, Hi: b.Hi} }

// elementDTO is an element as range responses encode it; uploads and appends
// are decoded without it (see decodeIngest).
type elementDTO struct {
	ID  uint64 `json:"id"`
	Box boxDTO `json:"box"`
}

// generateSpec requests server-side synthesis of one of the paper's
// workloads (§VII-B) instead of uploading elements.
type generateSpec struct {
	Kind string `json:"kind"` // uniform | dense_cluster | uniform_cluster | massive_cluster | axons | dendrites
	N    int    `json:"n"`
	Seed int64  `json:"seed"`
}

func (g generateSpec) elements() ([]transformers.Element, error) {
	if g.N <= 0 {
		return nil, fmt.Errorf("generate: n must be positive, got %d", g.N)
	}
	switch g.Kind {
	case "uniform":
		return transformers.GenerateUniform(g.N, g.Seed), nil
	case "dense_cluster":
		return transformers.GenerateDenseCluster(g.N, g.Seed), nil
	case "uniform_cluster":
		return transformers.GenerateUniformCluster(g.N, g.Seed), nil
	case "massive_cluster":
		return transformers.GenerateMassiveCluster(g.N, g.Seed), nil
	case "axons":
		return transformers.GenerateAxons(g.N, g.Seed), nil
	case "dendrites":
		return transformers.GenerateDendrites(g.N, g.Seed), nil
	default:
		return nil, fmt.Errorf("generate: unknown kind %q", g.Kind)
	}
}

// datasetRequest is the body of POST /datasets next to its "elements"
// member, which decodeIngest streams into []transformers.Element itself.
type datasetRequest struct {
	Name     string        `json:"name"`
	Generate *generateSpec `json:"generate,omitempty"`
	// TimeoutMS bounds this registration (build included); the server
	// default applies when zero.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// appendRequest lands elements in a dataset's delta buffer (POST
// /datasets/{name}/append): visible to joins immediately, merged into the
// main index in the background. As with datasetRequest, the "elements"
// member is decoded apart.
type appendRequest struct {
	// TimeoutMS bounds the request; the server default applies when zero.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type joinRequest struct {
	A string `json:"a"`
	B string `json:"b"`
	// Algorithm names the engine: a ServedEngines entry, "auto" (the
	// planner picks from cached dataset statistics), or empty for the
	// daemon default. The response reports the resolved choice.
	Algorithm    string  `json:"algorithm,omitempty"`
	Distance     float64 `json:"distance,omitempty"`
	Parallelism  int     `json:"parallelism,omitempty"`
	Stream       bool    `json:"stream,omitempty"`
	IncludePairs bool    `json:"include_pairs,omitempty"`
	NoCache      bool    `json:"no_cache,omitempty"`
	// TimeoutMS bounds this join end to end: on expiry the kernels abort
	// cooperatively, the slot is released, and the request answers 504 (or
	// an aborted NDJSON trailer if the stream already started). The server
	// default applies when zero.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Trace asks for the request's span tree in the response (equivalent to
	// the X-Trace: 1 header). Joins are traced either way — tracing is how
	// slow joins land in /debug/joins with their breakdown — this only
	// controls whether the tree is echoed back.
	Trace bool `json:"trace,omitempty"`
}

type joinResponse struct {
	A         string              `json:"a"`
	B         string              `json:"b"`
	RequestID string              `json:"request_id"`
	Cached    bool                `json:"cached"`
	Summary   JoinSummary         `json:"summary"`
	Pairs     []transformers.Pair `json:"pairs,omitempty"`
	Trace     *obs.TraceDTO       `json:"trace,omitempty"`
}

type rangeRequest struct {
	Dataset string `json:"dataset"`
	Box     boxDTO `json:"box"`
	Stream  bool   `json:"stream,omitempty"`
	// TimeoutMS bounds the query; the server default applies when zero.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type rangeResponse struct {
	Dataset  string       `json:"dataset"`
	Results  int          `json:"results"`
	Elements []elementDTO `json:"elements"`
	Stats    rangeStats   `json:"stats"`
}

type rangeStats struct {
	NodesVisited int     `json:"nodes_visited"`
	UnitsRead    int     `json:"units_read"`
	WalkSteps    uint64  `json:"walk_steps"`
	WallMS       float64 `json:"wall_ms"`
}

type errorResponse struct {
	Error     string        `json:"error"`
	RequestID string        `json:"request_id,omitempty"`
	Trace     *obs.TraceDTO `json:"trace,omitempty"`
}

// maxTenantLen caps the accepted X-Tenant header: tenant IDs key maps and
// appear in /stats, so an adversarial header must not grow state unboundedly
// per request (beyond one entry per distinct tenant, which admission control
// itself bounds the damage of).
const maxTenantLen = 64

// headerID reads an identifier a client chose from the named header, fit to
// be echoed, logged and used as a key: trimmed, capped at maxTenantLen bytes,
// control characters stripped. Empty when the header is absent or nothing of
// it survives.
func headerID(r *http.Request, header string) string {
	id := strings.TrimSpace(r.Header.Get(header))
	if len(id) > maxTenantLen {
		id = id[:maxTenantLen]
	}
	return strings.Map(func(c rune) rune {
		if c < 0x20 || c == 0x7f {
			return -1
		}
		return c
	}, id)
}

// tenantFromHeaders reads the request's tenant identity: X-Tenant names the
// tenant (default tenant when absent), X-Priority: batch selects the batch
// admission lane.
func tenantFromHeaders(r *http.Request) TenantInfo {
	id := headerID(r, "X-Tenant")
	if id == "" {
		id = DefaultTenant
	}
	pr := Interactive
	if strings.EqualFold(strings.TrimSpace(r.Header.Get("X-Priority")), "batch") {
		pr = Batch
	}
	return TenantInfo{ID: id, Priority: pr}
}

// requestIDFrom honors the client's X-Request-ID (sanitized the same way as
// tenant IDs: length-capped, control characters stripped) so traces correlate
// with the caller's own logs, and mints one otherwise. The resolved ID is
// echoed on every response — success, error, or stream trailer.
func requestIDFrom(r *http.Request) string {
	if id := headerID(r, "X-Request-ID"); id != "" {
		return id
	}
	return obs.NewRequestID()
}

// requestContext derives the working context of one request: tenant identity
// attached, and the deadline from the request's timeout_ms or the server
// default. The returned cancel must always be called.
func requestContext(svc *Service, r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	ctx := WithTenant(r.Context(), tenantFromHeaders(r))
	d := svc.cfg.DefaultTimeout
	if timeoutMS > 0 {
		d = time.Duration(timeoutMS) * time.Millisecond
	}
	if d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return context.WithCancel(ctx)
}

// NewHandler returns the daemon's HTTP handler over svc.
func NewHandler(svc *Service) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /datasets", func(w http.ResponseWriter, r *http.Request) { handleDatasets(svc, w, r) })
	mux.HandleFunc("POST /datasets/{name}/append", func(w http.ResponseWriter, r *http.Request) { handleAppend(svc, w, r) })
	mux.HandleFunc("POST /join", func(w http.ResponseWriter, r *http.Request) { handleJoin(svc, w, r, false) })
	mux.HandleFunc("POST /join/distance", func(w http.ResponseWriter, r *http.Request) { handleJoin(svc, w, r, true) })
	mux.HandleFunc("POST /query/range", func(w http.ResponseWriter, r *http.Request) { handleRange(svc, w, r) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Always 200 — degradation is a serving mode, not an outage; load
		// balancers should not pull a daemon that is shedding one tenant.
		writeJSON(w, http.StatusOK, svc.Health())
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, svc.Stats())
	})
	// Observability surface: Prometheus-style text exposition, the slow-join
	// ring with full span trees, and the planner's prediction-vs-reality
	// report.
	mux.Handle("GET /metrics", svc.Metrics())
	mux.HandleFunc("GET /debug/joins", func(w http.ResponseWriter, r *http.Request) {
		ms := svc.SlowJoinThreshold().Milliseconds()
		if svc.SlowJoinThreshold() < 0 {
			ms = -1 // sub-millisecond negatives truncate to 0; keep the record-all sentinel
		}
		writeJSON(w, http.StatusOK, debugJoinsResponse{
			ThresholdMS: ms,
			Total:       svc.SlowJoins().Total(),
			Joins:       svc.SlowJoins().Snapshot(),
		})
	})
	mux.HandleFunc("GET /debug/planner", func(w http.ResponseWriter, r *http.Request) {
		rep := svc.PlannerRecorder().Report()
		samples := svc.PlannerRecorder().Snapshot()
		if len(samples) > debugPlannerSamples {
			samples = samples[:debugPlannerSamples]
		}
		writeJSON(w, http.StatusOK, debugPlannerResponse{
			Report:      rep,
			Corrections: largestCorrections(svc.PlannerCorrections(), debugPlannerSamples),
			Recent:      samples,
		})
	})
	return mux
}

// debugPlannerSamples caps the raw samples and the correction series echoed
// by /debug/planner; the full ring still feeds the aggregate report.
const debugPlannerSamples = 100

// largestCorrections keeps the n most-sampled series of a snapshot sorted by
// pair and engine, ties going to the earlier name, in that same order.
func largestCorrections(corr []planner.Correction, n int) []planner.Correction {
	if len(corr) <= n {
		return corr
	}
	idx := make([]int, len(corr))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool { return corr[idx[i]].Samples > corr[idx[j]].Samples })
	keep := idx[:n]
	sort.Ints(keep)
	out := make([]planner.Correction, n)
	for i, k := range keep {
		out[i] = corr[k]
	}
	return out
}

type debugJoinsResponse struct {
	// ThresholdMS is the slow-join bound; negative means every join is
	// recorded.
	ThresholdMS int64            `json:"threshold_ms"`
	Total       int64            `json:"total"`
	Joins       []obs.JoinRecord `json:"joins"`
}

type debugPlannerResponse struct {
	Report obs.PlannerReport `json:"report"`
	// Corrections lists the online drift corrector's learned factors
	// (capped like Recent — the largest series, not all of them).
	Corrections []planner.Correction `json:"corrections,omitempty"`
	Recent      []obs.PlannerSample  `json:"recent"`
}

// responseBufBytes sizes the buffer pairs are encoded into on their way out —
// an NDJSON stream's lines and a collected body's "pairs" array alike: the
// response is written a bufferful at a time and never exists whole.
const responseBufBytes = 64 << 10

// responseWriters pools those buffers: one allocated per response was nearly
// all a summary-only join allocated, and what set the daemon's GC pace.
var responseWriters = sync.Pool{New: func() any { return bufio.NewWriterSize(nil, responseBufBytes) }}

// responseWriter returns a pooled buffered writer onto w; the caller flushes
// it and hands it back with putResponseWriter once the response is written.
func responseWriter(w io.Writer) *bufio.Writer {
	bw := responseWriters.Get().(*bufio.Writer)
	bw.Reset(w)
	return bw
}

// putResponseWriter returns bw to the pool, detached: a pooled writer must
// not pin a ResponseWriter (and drops whatever a failed write left buffered).
func putResponseWriter(bw *bufio.Writer) {
	bw.Reset(nil)
	responseWriters.Put(bw)
}

// pairRoom makes room in bw for one encoded pair and a separator, so the pair
// is encoded straight into bw.AvailableBuffer() without a copy.
func pairRoom(bw *bufio.Writer) error {
	if bw.Available() > geom.PairJSONMax {
		return nil
	}
	return bw.Flush()
}

// writeJoinResponse answers a collected join: the bytes
// json.NewEncoder(w).Encode(resp) would write with resp.Pairs holding the
// sink's pairs — joinResponse stays the one declaration of the body — except
// that the pairs are encoded from where the sink holds them through a
// bufferful at a time, so neither a second pair slice nor the body is built.
func writeJoinResponse(w http.ResponseWriter, resp joinResponse, sink *collector) {
	// Encode around the pairs: everything before them, then the trace after.
	trace := resp.Trace
	resp.Pairs, resp.Trace = nil, nil
	head, err := json.Marshal(resp)
	var tail []byte
	if err == nil && trace != nil {
		tail, err = json.Marshal(trace)
	}
	if err != nil {
		writeError(w, err, resp.RequestID, nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	// Write errors mean the client is gone; like writeJSON, nothing to do.
	bw := responseWriter(w)
	defer putResponseWriter(bw)
	_, _ = bw.Write(head[:len(head)-1]) // reopen the object
	if sink.collect && sink.len() > 0 {
		_, _ = bw.WriteString(`,"pairs":[`)
		sep := false
		_ = sink.each(func(run []transformers.Pair) error {
			for _, p := range run {
				if err := pairRoom(bw); err != nil {
					return err
				}
				b := bw.AvailableBuffer()
				if sep {
					b = append(b, ',')
				}
				sep = true
				_, _ = bw.Write(p.AppendJSON(b))
			}
			return nil
		})
		_ = bw.WriteByte(']')
	}
	if tail != nil {
		_, _ = bw.WriteString(`,"trace":`)
		_, _ = bw.Write(tail)
	}
	_, _ = bw.WriteString("}\n")
	_ = bw.Flush()
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// statusOf maps service errors onto HTTP status codes: 429 for a shed
// request (back off your traffic — the daemon is fine), 503 for global
// saturation, 504 for an expired request deadline.
func statusOf(err error) int {
	switch {
	case errors.Is(err, ErrUnknownDataset):
		return http.StatusNotFound
	case errors.Is(err, ErrUnknownAlgorithm):
		return http.StatusBadRequest
	case errors.Is(err, ErrShed):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrBusy):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	}
	return http.StatusInternalServerError
}

// outcomeOf names a join's terminal state for the slow-join log.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrShed):
		return "shed"
	case errors.Is(err, ErrBusy):
		return "busy"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	}
	return "error"
}

// writeError answers a failed request: mapped status, Retry-After on
// load-shedding statuses, and the request ID (plus the span tree when the
// caller asked to see it) in the body so failures correlate with traces.
func writeError(w http.ResponseWriter, err error, rid string, trace *obs.TraceDTO) int {
	status := statusOf(err)
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, errorResponse{Error: err.Error(), RequestID: rid, Trace: trace})
	return status
}

// badRequest writes a 400 with the request ID attached.
func badRequest(w http.ResponseWriter, rid, msg string) {
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg, RequestID: rid})
}

// bodyErrorStatus maps a request-body decoding error to its answer: the body
// cap is a 413, an ingest body's invalid box a 400 with the decoder's own
// message, everything else a 400 "bad request body".
func bodyErrorStatus(err error) (status int, msg string) {
	var tooLarge *http.MaxBytesError
	var ie *ingestError
	switch {
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit)
	case errors.As(err, &ie) && ie.kind == ingestInvalidBox:
		return http.StatusBadRequest, ie.msg
	}
	return http.StatusBadRequest, "bad request body: " + err.Error()
}

func decodeBody(w http.ResponseWriter, r *http.Request, rid string, v any, maxBytes int64) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		status, msg := bodyErrorStatus(err)
		writeJSON(w, status, errorResponse{Error: msg, RequestID: rid})
		return false
	}
	return true
}

// decodeIngestBody decodes an upload or append body (see decodeIngest) under
// the body cap, records how long that took — reading the body off the
// connection included — and answers the request itself when the body is
// refused.
func decodeIngestBody(svc *Service, w http.ResponseWriter, r *http.Request, rid string, meta any) (elems []transformers.Element, took time.Duration, ok bool) {
	start := time.Now()
	elems, err := decodeIngest(http.MaxBytesReader(w, r.Body, svc.cfg.MaxBodyBytes), meta)
	took = time.Since(start)
	if err != nil {
		svc.obs.decodeHist.Observe("error", took.Seconds())
		status, msg := bodyErrorStatus(err)
		writeJSON(w, status, errorResponse{Error: msg, RequestID: rid})
		return nil, took, false
	}
	svc.obs.decodeHist.Observe("ok", took.Seconds())
	return elems, took, true
}

func handleDatasets(svc *Service, w http.ResponseWriter, r *http.Request) {
	rid := requestIDFrom(r)
	w.Header().Set("X-Request-ID", rid)
	var req datasetRequest
	elems, decode, ok := decodeIngestBody(svc, w, r, rid, &req)
	if !ok {
		return
	}
	if req.Name == "" {
		badRequest(w, rid, "dataset name is required")
		return
	}
	switch {
	case req.Generate != nil && len(elems) > 0:
		badRequest(w, rid, "provide either elements or generate, not both")
		return
	case req.Generate != nil:
		if req.Generate.N > svc.cfg.MaxGenerateElements {
			badRequest(w, rid, fmt.Sprintf("generate: n %d exceeds the %d-element cap", req.Generate.N, svc.cfg.MaxGenerateElements))
			return
		}
		var err error
		if elems, err = req.Generate.elements(); err != nil {
			badRequest(w, rid, err.Error())
			return
		}
	case len(elems) == 0:
		badRequest(w, rid, "provide elements or generate")
		return
	}
	ctx, cancel := requestContext(svc, r, req.TimeoutMS)
	defer cancel()
	info, err := svc.AddDataset(ctx, req.Name, elems)
	if err != nil {
		writeError(w, err, rid, nil)
		return
	}
	info.DecodeMS = float64(decode) / float64(time.Millisecond)
	// A registration is the daemon's largest transient — decode chunks and
	// build scratch, several times what stays — and the heap goal the joins
	// after it run under is set by whichever collection ran last inside it:
	// one that finds the scratch live doubles the goal, and since a join
	// allocates a few KB (see responseWriters) nothing corrects it for
	// seconds. Collect once now, with the scratch dead, so the goal is sized
	// to what stays. The resident data is pointer-free element arrays: the
	// cycle takes 0.5–1.6 ms with two 100K-element datasets held.
	runtime.GC()
	writeJSON(w, http.StatusCreated, info)
}

func handleAppend(svc *Service, w http.ResponseWriter, r *http.Request) {
	rid := requestIDFrom(r)
	w.Header().Set("X-Request-ID", rid)
	name := r.PathValue("name")
	var req appendRequest
	elems, _, ok := decodeIngestBody(svc, w, r, rid, &req)
	if !ok {
		return
	}
	if len(elems) == 0 {
		badRequest(w, rid, "append: elements are required")
		return
	}
	ctx, cancel := requestContext(svc, r, req.TimeoutMS)
	defer cancel()
	info, err := svc.Append(ctx, name, elems)
	if err != nil {
		writeError(w, err, rid, nil)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// wantTrace reports whether the client asked for the span tree in the
// response body — via the request field or the X-Trace header.
func wantTrace(req joinRequest, r *http.Request) bool {
	if req.Trace {
		return true
	}
	v := strings.TrimSpace(r.Header.Get("X-Trace"))
	return v != "" && v != "0"
}

// joinCall is one validated join request on its way to either answer shape —
// one JSON body or an NDJSON stream.
type joinCall struct {
	svc    *Service
	req    joinRequest
	params JoinParams
	rid    string
	tr     *obs.Trace
	echo   bool // the client asked for the span tree
}

// finish closes the request's trace and assembles the record observeJoin
// files it under: engine is what Service.join resolved ("" when it failed
// before planning did), out its outcome (nil on error), pairs what the
// response carries. It returns the span tree to echo too — nil unless the
// client asked for it.
func (c *joinCall) finish(ctx context.Context, engine string, out *JoinOutcome, err error, pairs int64, wall time.Duration) (obs.JoinRecord, *obs.TraceDTO) {
	dto := c.tr.Finish()
	rec := obs.JoinRecord{
		Time:      time.Now(),
		RequestID: c.rid,
		Tenant:    TenantFrom(ctx).ID,
		A:         c.req.A,
		B:         c.req.B,
		Predicate: predicateOf(c.params.Distance),
		Engine:    engine,
		Cached:    out != nil && out.Cached,
		Pairs:     pairs,
		Outcome:   outcomeOf(err),
		Status:    http.StatusOK,
		WallMS:    float64(wall.Microseconds()) / 1000,
		Trace:     dto,
	}
	if !c.echo {
		dto = nil
	}
	return rec, dto
}

func handleJoin(svc *Service, w http.ResponseWriter, r *http.Request, distance bool) {
	rid := requestIDFrom(r)
	w.Header().Set("X-Request-ID", rid)
	var req joinRequest
	if !decodeBody(w, r, rid, &req, svc.cfg.MaxBodyBytes) {
		return
	}
	if req.A == "" || req.B == "" {
		badRequest(w, rid, "both dataset names a and b are required")
		return
	}
	params := JoinParams{Parallelism: req.Parallelism, NoCache: req.NoCache, Algorithm: req.Algorithm}
	if distance {
		// NaN fails every comparison, so `<= 0` alone would wave it (and the
		// infinities) through to fail deep in planning as a generic 500.
		if req.Distance <= 0 || math.IsNaN(req.Distance) || math.IsInf(req.Distance, 0) {
			badRequest(w, rid, "distance must be a positive finite number")
			return
		}
		params.Distance = req.Distance
	} else if req.Distance != 0 {
		badRequest(w, rid, "distance is only valid on /join/distance")
		return
	}
	ctx, cancel := requestContext(svc, r, req.TimeoutMS)
	defer cancel()
	// Every join is traced: the span tree is what /debug/joins records for
	// slow ones. Echoing it in the response stays opt-in.
	call := &joinCall{svc: svc, req: req, params: params, rid: rid, tr: obs.New(rid), echo: wantTrace(req, r)}
	ctx = obs.NewContext(ctx, call.tr)
	if req.Stream {
		call.stream(ctx, w)
		return
	}
	// The answer stays in the sink until the body is written from it, then
	// its buffers go back for the next request.
	sink := &collector{collect: req.IncludePairs}
	defer sink.release()
	start := time.Now()
	out, engine, err := svc.join(ctx, req.A, req.B, params, sink)
	wall := time.Since(start)
	var pairs int64
	if err == nil {
		pairs = int64(out.Summary.Results)
	}
	rec, trace := call.finish(ctx, engine, out, err, pairs, wall)
	if err != nil {
		rec.Status = writeError(w, err, rid, trace)
		svc.observeJoin(rec, wall)
		return
	}
	svc.observeJoin(rec, wall)
	writeJoinResponse(w, joinResponse{A: req.A, B: req.B, RequestID: rid, Cached: out.Cached, Summary: out.Summary, Trace: trace}, sink)
}

// streamFlushEvery is the pair interval between explicit flushes of a
// streaming join response: small enough that a consumer sees progress (and a
// gone consumer is noticed) promptly, large enough to amortize the flush.
// The bufio layer flushes on its own in between, so response-path buffering
// is bounded either way.
const streamFlushEvery = 512

// streamWriteTimeout is the rolling per-flush write deadline of a streaming
// response. The join runs inside a pool slot while its pairs are written, so
// a connected-but-stalled client (slow-loris) would otherwise pin the slot
// forever: the request context only cancels on disconnect, and the daemon
// sets no global WriteTimeout (legitimate streams are arbitrarily long). A
// client must drain each flush within this window or its writes fail, which
// aborts the join and frees the slot.
const streamWriteTimeout = 30 * time.Second

// streamTrailer is the final NDJSON line of every stream that got past the
// headers: either the summary of a completed join, or the error of an
// aborted one. "aborted" is the field clients key truncation detection on —
// a stream whose last line lacks aborted:false did not complete — and
// "pairs" says how many pair lines preceded it, so even a consumer that lost
// count can tell a truncated pair list from a complete one.
type streamTrailer struct {
	Summary   *JoinSummary  `json:"summary,omitempty"`
	RequestID string        `json:"request_id"`
	Cached    bool          `json:"cached"`
	Error     string        `json:"error,omitempty"`
	Aborted   bool          `json:"aborted"`
	Pairs     int           `json:"pairs"`
	Trace     *obs.TraceDTO `json:"trace,omitempty"`
}

// stream runs the join with the response as its consumer and writes NDJSON as
// pairs surface: one pair object per line, then one final trailer line.
// Writes happen under the engine's backpressure — a slow consumer slows the
// join instead of growing a buffer — and a failed write (client gone) aborts
// the underlying join. Errors before the first pair still get a proper HTTP
// status; later ones are reported in the trailer with aborted:true, so
// clients can always distinguish truncation from completion.
func (c *joinCall) stream(ctx context.Context, w http.ResponseWriter) {
	bw := responseWriter(w)
	defer putResponseWriter(bw)
	flusher, _ := w.(http.Flusher)
	rc := http.NewResponseController(w)
	// Rolling write deadline: armed before the response starts and re-armed
	// at every explicit flush, it also bounds the bufio layer's implicit
	// flushes in between. Best-effort — writers without deadline support
	// (tests, exotic middleware) just decline.
	arm := func() { _ = rc.SetWriteDeadline(time.Now().Add(streamWriteTimeout)) }
	// Clear the deadline on every exit: the server has no WriteTimeout, so
	// net/http will not re-arm it between requests, and a stale deadline
	// would time out the keep-alive connection's next response.
	defer func() { _ = rc.SetWriteDeadline(time.Time{}) }()
	enc := json.NewEncoder(bw) // the trailer's; pair lines are appended, not reflected
	started := false
	start := func() {
		if !started {
			arm()
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			started = true
		}
	}
	n := 0
	begin := time.Now()
	sink := &collector{consumer: func(p transformers.Pair) error {
		start()
		if err := pairRoom(bw); err != nil {
			return err
		}
		if _, err := bw.Write(append(p.AppendJSON(bw.AvailableBuffer()), '\n')); err != nil {
			return err
		}
		n++
		if n%streamFlushEvery == 0 {
			arm()
			if err := bw.Flush(); err != nil {
				return err
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		return nil
	}}
	defer sink.release()
	out, engine, err := c.svc.join(ctx, c.req.A, c.req.B, c.params, sink)
	wall := time.Since(begin)
	rec, trace := c.finish(ctx, engine, out, err, int64(n), wall)
	if err != nil {
		if !started {
			rec.Status = writeError(w, err, c.rid, trace)
			c.svc.observeJoin(rec, wall)
			return
		}
		// The status line is gone; the NDJSON trailer carries the error. A
		// plain error after pairs flowed means the consumer saw a truncated
		// stream — record it as aborted. Re-arm first — the last deadline
		// may predate a long pair-free stretch.
		if rec.Outcome == "error" {
			rec.Outcome = "aborted"
		}
		c.svc.observeJoin(rec, wall)
		arm()
		_ = enc.Encode(streamTrailer{RequestID: c.rid, Error: err.Error(), Aborted: true, Pairs: n, Trace: trace})
		_ = bw.Flush()
		return
	}
	c.svc.observeJoin(rec, wall)
	start() // a zero-pair join still answers with the NDJSON trailer
	arm()
	_ = enc.Encode(streamTrailer{Summary: &out.Summary, RequestID: c.rid, Cached: out.Cached, Pairs: n, Trace: trace})
	_ = bw.Flush()
	if flusher != nil {
		flusher.Flush()
	}
}

func handleRange(svc *Service, w http.ResponseWriter, r *http.Request) {
	rid := requestIDFrom(r)
	w.Header().Set("X-Request-ID", rid)
	var req rangeRequest
	if !decodeBody(w, r, rid, &req, svc.cfg.MaxBodyBytes) {
		return
	}
	if req.Dataset == "" {
		badRequest(w, rid, "dataset name is required")
		return
	}
	query := req.Box.box()
	if !query.Valid() {
		badRequest(w, rid, "invalid query box (lo > hi)")
		return
	}
	ctx, cancel := requestContext(svc, r, req.TimeoutMS)
	defer cancel()
	elems, rs, err := svc.RangeQuery(ctx, req.Dataset, query)
	if err != nil {
		writeError(w, err, rid, nil)
		return
	}
	stats := rangeStats{
		NodesVisited: rs.NodesVisited,
		UnitsRead:    rs.UnitsRead,
		WalkSteps:    rs.WalkSteps,
		WallMS:       float64(rs.Wall.Microseconds()) / 1000,
	}
	if req.Stream {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
		bw := responseWriter(w)
		defer putResponseWriter(bw)
		enc := json.NewEncoder(bw)
		for _, e := range elems {
			if err := enc.Encode(elementDTO{ID: e.ID, Box: toBoxDTO(e.Box)}); err != nil {
				return
			}
		}
		_ = enc.Encode(struct {
			Summary rangeStats `json:"summary"`
			Results int        `json:"results"`
		}{stats, len(elems)})
		_ = bw.Flush()
		return
	}
	resp := rangeResponse{Dataset: req.Dataset, Results: len(elems), Elements: make([]elementDTO, len(elems)), Stats: stats}
	for i, e := range elems {
		resp.Elements[i] = elementDTO{ID: e.ID, Box: toBoxDTO(e.Box)}
	}
	writeJSON(w, http.StatusOK, resp)
}
