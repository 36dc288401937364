// Package obs is the serving path's observability layer: request-scoped span
// traces, a Prometheus-style text metrics registry and a bounded ring of slow
// joins — all dependency-free (stdlib only) and nil-safe, so instrumented
// code paths cost one context lookup when nothing is recording.
//
// The design contract is that the hot path pays nothing when untraced: Start
// on a context without a trace returns a nil *Span without allocating, and
// every *Span method is a no-op on nil. Per-request structures (a span tree
// is ~a dozen nodes) allocate; per-pair code must only touch counters it
// already maintains.
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"time"

	"context"
)

// NewRequestID returns a fresh 16-hex-digit request correlation ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; a timestamp
		// keeps correlation working rather than panicking an observability
		// helper.
		return fmt.Sprintf("%016x", uint64(time.Now().UnixNano()))
	}
	return hex.EncodeToString(b[:])
}

// Trace is the span tree of one request. All methods are safe for concurrent
// use (parallel shard tiles start spans concurrently); a nil *Trace is a
// valid "not tracing" value whose methods are no-ops.
type Trace struct {
	mu       sync.Mutex
	id       string
	start    time.Time
	end      time.Time
	spans    []*Span          // top-level spans, in start order
	counters map[string]int64 // trace-level counters (flush counts etc.)
}

// New starts a trace identified by the request ID.
func New(requestID string) *Trace {
	return &Trace{id: requestID, start: time.Now()}
}

// ID returns the trace's request ID ("" on nil).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// Add bumps a trace-level counter; no-op on nil.
func (t *Trace) Add(name string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counters == nil {
		t.counters = make(map[string]int64)
	}
	t.counters[name] += v
	t.mu.Unlock()
}

// Span is one timed phase of a trace. The zero of the type is never used;
// a nil *Span (untraced request) accepts every method as a no-op.
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	dur      time.Duration
	ended    bool
	counters map[string]int64
	children []*Span
}

type traceCtxKey struct{}
type spanCtxKey struct{}

// NewContext attaches a trace to ctx (no current span: the next Start opens
// a top-level span).
func NewContext(ctx context.Context, t *Trace) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, t)
}

// FromContext returns the trace attached to ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceCtxKey{}).(*Trace)
	return t
}

// Enabled reports whether ctx carries a trace — the one-lookup guard hot
// loops use before doing any per-item span work.
func Enabled(ctx context.Context) bool { return FromContext(ctx) != nil }

// Start opens a span named name under ctx's current span (top-level when
// none) and returns a derived context in which the new span is current, so
// spans started by callees nest beneath it. On a context without a trace it
// returns (ctx, nil) without allocating.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	t := FromContext(ctx)
	if t == nil {
		return ctx, nil
	}
	parent, _ := ctx.Value(spanCtxKey{}).(*Span)
	s := &Span{tr: t, name: name, start: time.Now()}
	t.mu.Lock()
	if parent != nil {
		parent.children = append(parent.children, s)
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// End closes the span at the current time; idempotent, no-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.dur = time.Since(s.start)
	}
	s.tr.mu.Unlock()
}

// Add bumps a span counter (pages read, candidates, queue depth …); usable
// before and after End, no-op on nil.
func (s *Span) Add(name string, v int64) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64)
	}
	s.counters[name] += v
	s.tr.mu.Unlock()
}

// Record attaches an already-measured child span with an explicit duration —
// for phases accumulated across callbacks (time spent inside a streaming
// emit) rather than bracketed by Start/End. Returns the child for counters;
// nil in, nil out.
func (s *Span) Record(name string, d time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{tr: s.tr, name: name, start: time.Now().Add(-d), dur: d, ended: true}
	s.tr.mu.Lock()
	s.children = append(s.children, c)
	s.tr.mu.Unlock()
	return c
}

// SpanDTO is the wire form of one span: offsets and durations in
// milliseconds from the trace start, with counters and children.
type SpanDTO struct {
	Name     string           `json:"name"`
	StartMS  float64          `json:"start_ms"`
	DurMS    float64          `json:"dur_ms"`
	Counters map[string]int64 `json:"counters,omitempty"`
	Children []*SpanDTO       `json:"children,omitempty"`
}

// TraceDTO is the wire form of a finished trace.
type TraceDTO struct {
	RequestID string           `json:"request_id"`
	WallMS    float64          `json:"wall_ms"`
	Counters  map[string]int64 `json:"counters,omitempty"`
	Spans     []*SpanDTO       `json:"spans"`
}

// Finish closes the trace and returns its wire form. Spans still open (an
// error unwound past their End) are closed at the trace end, so a snapshot
// never reports a zero duration for work that ran. Nil-safe: returns nil.
func (t *Trace) Finish() *TraceDTO {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.end.IsZero() {
		t.end = time.Now()
	}
	dto := &TraceDTO{
		RequestID: t.id,
		WallMS:    float64(t.end.Sub(t.start)) / float64(time.Millisecond),
		Counters:  copyCounters(t.counters),
		Spans:     make([]*SpanDTO, 0, len(t.spans)),
	}
	for _, s := range t.spans {
		dto.Spans = append(dto.Spans, s.dtoLocked(t.start, t.end))
	}
	return dto
}

func (s *Span) dtoLocked(traceStart, traceEnd time.Time) *SpanDTO {
	d := s.dur
	if !s.ended {
		d = traceEnd.Sub(s.start)
	}
	dto := &SpanDTO{
		Name:     s.name,
		StartMS:  float64(s.start.Sub(traceStart)) / float64(time.Millisecond),
		DurMS:    float64(d) / float64(time.Millisecond),
		Counters: copyCounters(s.counters),
	}
	for _, c := range s.children {
		dto.Children = append(dto.Children, c.dtoLocked(traceStart, traceEnd))
	}
	return dto
}

func copyCounters(m map[string]int64) map[string]int64 {
	if len(m) == 0 {
		return nil
	}
	out := make(map[string]int64, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// Find returns the first span with the given name in a depth-first walk of
// the DTO tree, or nil — the lookup tests and the example client use to
// navigate span trees.
func (t *TraceDTO) Find(name string) *SpanDTO {
	if t == nil {
		return nil
	}
	var walk func(spans []*SpanDTO) *SpanDTO
	walk = func(spans []*SpanDTO) *SpanDTO {
		for _, s := range spans {
			if s.Name == name {
				return s
			}
			if hit := walk(s.Children); hit != nil {
				return hit
			}
		}
		return nil
	}
	return walk(t.Spans)
}

// SpanNames lists every span name in the DTO tree, depth-first, sorted — a
// convenience for assertions.
func (t *TraceDTO) SpanNames() []string {
	if t == nil {
		return nil
	}
	var names []string
	var walk func(spans []*SpanDTO)
	walk = func(spans []*SpanDTO) {
		for _, s := range spans {
			names = append(names, s.Name)
			walk(s.Children)
		}
	}
	walk(t.Spans)
	sort.Strings(names)
	return names
}
