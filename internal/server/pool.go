package server

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// ErrBusy is returned when the pool is saturated and nothing can wait: every
// slot is in use and the pool was configured without a queue. The HTTP
// layer turns it into 503 so clients back off the daemon as a whole.
var ErrBusy = errors.New("server: join queue full")

// ErrShed is returned when admission control sheds a request to protect the
// other tenants: the requester's own queue is over its depth limit, or the
// global queue is full and the requester belongs to the heaviest queue. The
// HTTP layer turns it into 429 — back off *your* traffic; the daemon is fine.
var ErrShed = errors.New("server: request shed by tenant admission control")

// DefaultTenant is the tenant requests without an X-Tenant header bill to.
const DefaultTenant = "default"

// Priority selects the admission lane of a request.
type Priority uint8

const (
	// Interactive is the latency-sensitive lane: its waiters are always
	// dispatched before any batch waiter.
	Interactive Priority = iota
	// Batch is the throughput lane: admitted only when no interactive
	// waiter fits, and shed first under overload.
	Batch
)

func (p Priority) String() string {
	if p == Batch {
		return "batch"
	}
	return "interactive"
}

// Request describes one unit of work asking for pool admission: a join or a
// build, which takes one slot while it runs.
type Request struct {
	// Tenant bills the work to a tenant's fair share (DefaultTenant when
	// empty).
	Tenant string
	// Priority selects the admission lane.
	Priority Priority
	// Deprecated: Cost is ignored; every request takes one slot. The field
	// stays only because the benchmark's layer run still sets it.
	Cost int
}

// PoolConfig sizes the fair-share pool.
type PoolConfig struct {
	// Capacity is the number of slots: requests executing at once
	// (runtime.GOMAXPROCS(0) when <= 0).
	Capacity int
	// MaxQueue bounds the number of requests waiting for admission across
	// all tenants: negative means unbounded, zero means no waiting at all
	// (saturation returns ErrBusy immediately).
	MaxQueue int
	// TenantSlots caps one tenant's executing requests while another tenant
	// below its cap is waiting (<= 0 means Capacity, i.e. no isolation).
	// Otherwise a tenant may exceed its share rather than leave a slot idle.
	TenantSlots int
	// TenantQueue caps one tenant's waiting requests (<= 0 means no
	// per-tenant cap beyond MaxQueue). The excess is shed with ErrShed.
	TenantQueue int
}

// Pool is a fair-share admission scheduler. Requests carry a tenant and a
// priority lane and take one slot each; the pool bounds the requests
// executing at once, never idles a slot beside a waiter, keeps every tenant
// within its share while a tenant below its own waits, dispatches
// interactive work before batch work, and — when the global queue fills —
// sheds from the heaviest tenant's queue first instead of rejecting everyone.
type Pool struct {
	mu          sync.Mutex
	capacity    int
	maxQueue    int
	tenantCap   int
	tenantQueue int

	inUse     int
	queuedLen int // requests waiting, all tenants
	tenants   map[string]*tenantState
	seq       uint64 // FIFO arrival stamp

	completed uint64
	rejected  uint64 // ErrBusy + ErrShed, the legacy total
	shed      uint64 // ErrShed only
}

// tenantState is one tenant's admission bookkeeping. Waiter queues are
// per-lane FIFO lists of *waiter.
type tenantState struct {
	name      string
	inUse     int // executing requests
	lanes     [2]*list.List
	admitted  uint64
	shedCount uint64
	lastShed  time.Time
}

func (t *tenantState) queuedLen() int { return t.lanes[0].Len() + t.lanes[1].Len() }

// waiter is one parked request.
type waiter struct {
	tenant *tenantState
	lane   int
	seq    uint64
	ready  chan struct{} // closed on admission or shed
	shed   bool          // set (before close) when evicted by load shedding
	elem   *list.Element // position in its lane queue; nil once off-queue
}

// TenantPoolStats is one tenant's admission counters.
type TenantPoolStats struct {
	// Admitted counts requests that got a slot; Shed counts requests
	// rejected or evicted by admission control (429s).
	Admitted uint64 `json:"admitted"`
	Shed     uint64 `json:"shed"`
	// Queued is the current number of waiting requests; InUse the
	// number executing.
	Queued int `json:"queued"`
	InUse  int `json:"in_use"`
}

// PoolStats is a snapshot of pool activity.
type PoolStats struct {
	// Workers is the pool capacity in slots: the requests that may execute
	// at once.
	Workers   int    `json:"workers"`
	Active    int64  `json:"active"`
	Queued    int64  `json:"queued"`
	Completed uint64 `json:"completed"`
	Rejected  uint64 `json:"rejected"`
	// Shed counts the ErrShed subset of Rejected — per-tenant admission
	// control, not global saturation.
	Shed    uint64                     `json:"shed"`
	Tenants map[string]TenantPoolStats `json:"tenants,omitempty"`
}

// NewPool returns a fair-share pool over cfg.
func NewPool(cfg PoolConfig) *Pool {
	if cfg.Capacity <= 0 {
		cfg.Capacity = runtime.GOMAXPROCS(0)
	}
	tc := cfg.TenantSlots
	if tc <= 0 || tc > cfg.Capacity {
		tc = cfg.Capacity
	}
	return &Pool{
		capacity:    cfg.Capacity,
		maxQueue:    cfg.MaxQueue,
		tenantCap:   tc,
		tenantQueue: cfg.TenantQueue,
		tenants:     make(map[string]*tenantState),
	}
}

func (p *Pool) tenant(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	t := p.tenants[name]
	if t == nil {
		t = &tenantState{name: name}
		t.lanes[0] = list.New()
		t.lanes[1] = list.New()
		p.tenants[name] = t
	}
	return t
}

// Do runs fn on an admitted slot, waiting fairly for one if the pool is
// contended. It returns ErrShed when admission control sheds the
// request (per-tenant queue overflow, or eviction as the heaviest queue under
// global overflow), ErrBusy when the pool is saturated and configured with no
// queue, and the context's error when the caller gives up before admission.
func (p *Pool) Do(ctx context.Context, req Request, fn func() error) error {
	if err := ctx.Err(); err != nil {
		return err // a caller already gone is never admitted
	}
	lane := 0
	if req.Priority == Batch {
		lane = 1
	}

	p.mu.Lock()
	t := p.tenant(req.Tenant)
	if p.queuedLen == 0 && p.runnableLocked(t) {
		p.admitLocked(t)
		p.mu.Unlock()
		return p.run(t, fn)
	}
	if p.maxQueue == 0 {
		// No queue configured: saturation is an immediate global reject.
		p.rejected++
		p.mu.Unlock()
		return ErrBusy
	}

	// Enqueue first, then dispatch: newcomers never leapfrog waiters the
	// scheduler would have picked ahead of them (dispatch decides).
	w := &waiter{tenant: t, lane: lane, seq: p.seq, ready: make(chan struct{})}
	p.seq++
	w.elem = t.lanes[lane].PushBack(w)
	p.queuedLen++
	p.dispatchLocked()

	if w.elem != nil {
		// Still queued: enforce depth limits now that we occupy a slot in
		// the queue.
		if p.tenantQueue > 0 && t.queuedLen() > p.tenantQueue {
			p.withdrawLocked(w)
			p.noteShedLocked(t)
			p.mu.Unlock()
			return ErrShed
		}
		if p.maxQueue > 0 && p.queuedLen > p.maxQueue {
			h := p.heaviestLocked()
			if h == t {
				// The requester's own queue is the heaviest — its traffic
				// is what is overloading the daemon, so it takes the 429.
				p.withdrawLocked(w)
				p.noteShedLocked(t)
				p.mu.Unlock()
				return ErrShed
			}
			p.evictNewestLocked(h)
		}
	}
	p.mu.Unlock()

	select {
	case <-w.ready:
		if w.shed {
			return ErrShed
		}
		// Admitted — but the caller may have gone away while we waited;
		// running the work would burn a slot on a result nobody reads.
		if err := ctx.Err(); err != nil {
			p.release(t, false)
			return err
		}
		return p.run(t, fn)
	case <-ctx.Done():
		p.mu.Lock()
		if w.elem != nil {
			// Still queued: withdraw, then dispatch — w's queue may have
			// been what kept another tenant's over-share waiter out.
			p.withdrawLocked(w)
			p.dispatchLocked()
			p.mu.Unlock()
			return ctx.Err()
		}
		p.mu.Unlock()
		// Raced with dispatch or shed: the channel is closed (dispatchLocked
		// and the shed paths both close it before releasing the lock).
		<-w.ready
		if w.shed {
			return ErrShed
		}
		p.release(t, false)
		return ctx.Err()
	}
}

// withdrawLocked removes a still-queued waiter from its lane.
func (p *Pool) withdrawLocked(w *waiter) {
	w.tenant.lanes[w.lane].Remove(w.elem)
	w.elem = nil
	p.queuedLen--
}

// run executes fn on an already-admitted slot and releases it.
func (p *Pool) run(t *tenantState, fn func() error) error {
	defer p.release(t, true)
	return fn()
}

// release returns a slot to the pool and dispatches waiters.
func (p *Pool) release(t *tenantState, completed bool) {
	p.mu.Lock()
	p.inUse--
	t.inUse--
	if completed {
		p.completed++
	}
	p.dispatchLocked()
	p.mu.Unlock()
}

// runnableLocked reports whether a request of t may start now: a free slot,
// and the tenant within its fair share — unless no other tenant below its
// share is waiting, in which case the pool is work-conserving and lets t
// exceed its share rather than idle the slot.
func (p *Pool) runnableLocked(t *tenantState) bool {
	if p.inUse >= p.capacity {
		return false
	}
	return t.inUse < p.tenantCap || !p.othersBelowShareWaitingLocked(t)
}

func (p *Pool) othersBelowShareWaitingLocked(t *tenantState) bool {
	for _, o := range p.tenants {
		if o != t && o.queuedLen() > 0 && o.inUse < p.tenantCap {
			return true
		}
	}
	return false
}

func (p *Pool) admitLocked(t *tenantState) {
	p.inUse++
	t.inUse++
	t.admitted++
}

// dispatchLocked admits as many waiters as fit, interactive lane first, and
// within a lane the tenant with the fewest executing requests (fair share),
// FIFO within a tenant.
func (p *Pool) dispatchLocked() {
	for {
		w := p.pickLocked()
		if w == nil {
			return
		}
		p.withdrawLocked(w)
		p.admitLocked(w.tenant)
		close(w.ready)
	}
}

// pickLocked selects the next admissible waiter, or nil. Interactive lane
// first; within a lane, the tenant with the fewest executing requests wins
// (fair share), oldest arrival breaking ties. A waiter blocked by its share
// does not block the lane: another tenant's waiter behind it may start.
func (p *Pool) pickLocked() *waiter {
	for lane := 0; lane < 2; lane++ {
		var best *waiter
		for _, t := range p.tenants {
			e := t.lanes[lane].Front()
			if e == nil || !p.runnableLocked(t) {
				continue
			}
			w := e.Value.(*waiter)
			if best == nil ||
				t.inUse < best.tenant.inUse ||
				(t.inUse == best.tenant.inUse && w.seq < best.seq) {
				best = w
			}
		}
		if best != nil {
			return best
		}
	}
	return nil
}

// heaviestLocked returns the tenant with the most queued requests (the
// shedding victim under global overflow), or nil when nothing is queued.
func (p *Pool) heaviestLocked() *tenantState {
	var h *tenantState
	for _, t := range p.tenants {
		if n := t.queuedLen(); n > 0 && (h == nil || n > h.queuedLen()) {
			h = t
		}
	}
	return h
}

// evictNewestLocked sheds the newest waiter of t, batch lane first — the
// request whose loss costs the least accumulated waiting, from the lane with
// the weakest latency promise.
func (p *Pool) evictNewestLocked(t *tenantState) {
	for _, lane := range [2]int{1, 0} {
		if e := t.lanes[lane].Back(); e != nil {
			w := e.Value.(*waiter)
			p.withdrawLocked(w)
			w.shed = true
			p.noteShedLocked(t)
			close(w.ready)
			return
		}
	}
}

// noteShedLocked records a shed request of t: withdrawn from its queue on
// arrival, or evicted from it later.
func (p *Pool) noteShedLocked(t *tenantState) {
	t.shedCount++
	t.lastShed = time.Now()
	p.shed++
	p.rejected++
}

// Shedding lists the tenants that had requests shed within the given window,
// for health reporting ("tenant X shed N requests"). A zero window reports
// nothing.
func (p *Pool) Shedding(window time.Duration) []string {
	if window <= 0 {
		return nil
	}
	cutoff := time.Now().Add(-window)
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, t := range p.tenants {
		if t.shedCount > 0 && t.lastShed.After(cutoff) {
			out = append(out, fmt.Sprintf("tenant %q: shedding (%d requests shed, last %s ago)",
				t.name, t.shedCount, time.Since(t.lastShed).Round(time.Millisecond)))
		}
	}
	sort.Strings(out)
	return out
}

// QueueDepth returns the number of requests currently waiting for admission
// across all tenants — the cheap point read the admission-wait span and the
// queue-depth gauge use (Stats snapshots everything and allocates).
func (p *Pool) QueueDepth() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queuedLen
}

// Stats returns a snapshot of pool counters, per-tenant admission included.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := PoolStats{
		Workers:   p.capacity,
		Active:    int64(p.inUse),
		Queued:    int64(p.queuedLen),
		Completed: p.completed,
		Rejected:  p.rejected,
		Shed:      p.shed,
	}
	if len(p.tenants) > 0 {
		st.Tenants = make(map[string]TenantPoolStats, len(p.tenants))
		for name, t := range p.tenants {
			st.Tenants[name] = TenantPoolStats{
				Admitted: t.admitted,
				Shed:     t.shedCount,
				Queued:   t.queuedLen(),
				InUse:    t.inUse,
			}
		}
	}
	return st
}
