package obs

import (
	"sync"
	"time"
)

// JoinRecord is one served join in the slow-join ring: enough identity to
// correlate with client reports (request ID, tenant, datasets) plus the full
// span tree, for every outcome — success, shed, deadline, aborted stream.
type JoinRecord struct {
	Time      time.Time `json:"time"`
	RequestID string    `json:"request_id"`
	Tenant    string    `json:"tenant,omitempty"`
	A         string    `json:"a"`
	B         string    `json:"b"`
	Engine    string    `json:"engine,omitempty"`
	Predicate string    `json:"predicate,omitempty"`
	// Outcome is "ok", "shed", "busy", "deadline", "aborted" or "error";
	// Status is the HTTP status the request mapped to.
	Outcome string    `json:"outcome"`
	Status  int       `json:"status,omitempty"`
	Cached  bool      `json:"cached,omitempty"`
	Pairs   int64     `json:"pairs"`
	WallMS  float64   `json:"wall_ms"`
	Trace   *TraceDTO `json:"trace,omitempty"`
}

// ring is a bounded, newest-wins buffer: the last len(buf) values added and a
// lifetime count, under one mutex. JoinRing and PlannerRecorder are this ring
// over their record types.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	next  int
	full  bool
	total int64
}

// newRing returns a ring holding the last n values (n<=0 → 1).
func newRing[T any](n int) ring[T] {
	if n <= 0 {
		n = 1
	}
	return ring[T]{buf: make([]T, n)}
}

// add appends v, evicting the oldest value when full.
func (r *ring[T]) add(v T) {
	r.mu.Lock()
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// count returns the lifetime number of values added (evicted ones included).
func (r *ring[T]) count() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// snapshot returns the retained values, newest first.
func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}

// JoinRing is a bounded, newest-wins ring of join records. Joins slower than
// the service's slow-join threshold (or all joins when the threshold is
// negative) land here regardless of whether the client asked for a trace.
type JoinRing struct{ ring ring[JoinRecord] }

// NewJoinRing returns a ring holding the last n records (n<=0 → 1).
func NewJoinRing(n int) *JoinRing { return &JoinRing{newRing[JoinRecord](n)} }

// Add appends a record, evicting the oldest when full; nil-safe.
func (r *JoinRing) Add(rec JoinRecord) {
	if r != nil {
		r.ring.add(rec)
	}
}

// Total returns the lifetime record count (including evicted ones).
func (r *JoinRing) Total() int64 {
	if r == nil {
		return 0
	}
	return r.ring.count()
}

// Snapshot returns the retained records, newest first.
func (r *JoinRing) Snapshot() []JoinRecord {
	if r == nil {
		return nil
	}
	return r.ring.snapshot()
}
