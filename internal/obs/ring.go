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

// JoinRing is a bounded, newest-wins ring of join records: the last len(buf)
// added and a lifetime count, under one mutex. Joins slower than the
// service's slow-join threshold (or all joins when the threshold is negative)
// land here regardless of whether the client asked for a trace. All methods
// are nil-safe.
type JoinRing struct {
	mu    sync.Mutex
	buf   []JoinRecord
	next  int
	full  bool
	total int64
}

// NewJoinRing returns a ring holding the last n records (n<=0 → 1).
func NewJoinRing(n int) *JoinRing { return &JoinRing{buf: make([]JoinRecord, max(n, 1))} }

// Add appends a record, evicting the oldest when full.
func (r *JoinRing) Add(rec JoinRecord) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.total++
	r.mu.Unlock()
}

// Total returns the lifetime record count (including evicted ones).
func (r *JoinRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Snapshot returns the retained records, newest first.
func (r *JoinRing) Snapshot() []JoinRecord {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]JoinRecord, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}
