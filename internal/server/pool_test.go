package server

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"
)

// poolTestTimeout bounds every wait in this file: a pool bug must fail the
// test, not hang the suite.
const poolTestTimeout = 10 * time.Second

// occupy admits a blocking request and returns its release function. The
// request is fully admitted (not queued) before occupy returns.
func occupy(t *testing.T, p *Pool, req Request) func() {
	t.Helper()
	release := make(chan struct{})
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		done <- p.Do(context.Background(), req, func() error {
			close(started)
			<-release
			return nil
		})
	}()
	select {
	case <-started:
	case <-time.After(poolTestTimeout):
		t.Fatal("occupying request was not admitted")
	}
	return func() {
		close(release)
		if err := <-done; err != nil {
			t.Errorf("occupying request failed: %v", err)
		}
	}
}

// waitQueued polls until the pool reports n queued requests.
func waitQueued(t *testing.T, p *Pool, n int) {
	t.Helper()
	deadline := time.Now().Add(poolTestTimeout)
	for {
		if int(p.Stats().Queued) == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("queued = %d, want %d", p.Stats().Queued, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolFairShareDispatch: when a slot frees up, the waiting tenant with
// the fewest executing units is admitted before a tenant that already holds
// slots — even though that tenant's waiter arrived first.
func TestPoolFairShareDispatch(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 2, MaxQueue: -1})
	relA1 := occupy(t, p, Request{Tenant: "a"})
	relA2 := occupy(t, p, Request{Tenant: "a"})

	order := make(chan string, 2)
	var wg sync.WaitGroup
	enqueue := func(tenant string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Do(context.Background(), Request{Tenant: tenant}, func() error {
				order <- tenant
				return nil
			})
			if err != nil {
				t.Errorf("tenant %s: %v", tenant, err)
			}
		}()
	}
	enqueue("a") // arrives first...
	waitQueued(t, p, 1)
	enqueue("b") // ...but b holds no slots, so b is dispatched first
	waitQueued(t, p, 2)

	relA1()
	if got := <-order; got != "b" {
		t.Fatalf("first dispatched tenant = %q, want %q (fair share)", got, "b")
	}
	relA2()
	if got := <-order; got != "a" {
		t.Fatalf("second dispatched tenant = %q, want %q", got, "a")
	}
	wg.Wait()
}

// TestPoolPriorityLanes: an interactive waiter is dispatched before a batch
// waiter that has been queued longer.
func TestPoolPriorityLanes(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 1, MaxQueue: -1})
	rel := occupy(t, p, Request{})

	order := make(chan string, 2)
	var wg sync.WaitGroup
	enqueue := func(label string, pr Priority) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Do(context.Background(), Request{Priority: pr}, func() error {
				order <- label
				return nil
			})
			if err != nil {
				t.Errorf("%s: %v", label, err)
			}
		}()
	}
	enqueue("batch", Batch) // older...
	waitQueued(t, p, 1)
	enqueue("interactive", Interactive) // ...but the interactive lane dispatches first
	waitQueued(t, p, 2)

	rel()
	if got := <-order; got != "interactive" {
		t.Fatalf("first dispatched = %q, want interactive", got)
	}
	if got := <-order; got != "batch" {
		t.Fatalf("second dispatched = %q, want batch", got)
	}
	wg.Wait()
}

// TestPoolTenantQueueShed: a tenant exceeding its own queue depth is shed
// with ErrShed while the pool itself has room.
func TestPoolTenantQueueShed(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 1, MaxQueue: -1, TenantQueue: 2})
	rel := occupy(t, p, Request{Tenant: "t"})

	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			results <- p.Do(context.Background(), Request{Tenant: "t"}, func() error { return nil })
		}()
	}
	waitQueued(t, p, 2)

	// Third waiter overflows the tenant queue.
	if err := p.Do(context.Background(), Request{Tenant: "t"}, func() error { return nil }); !errors.Is(err, ErrShed) {
		t.Fatalf("overflow err = %v, want ErrShed", err)
	}
	st := p.Stats()
	if st.Shed != 1 || st.Tenants["t"].Shed != 1 {
		t.Fatalf("shed counters = %d / %d, want 1 / 1", st.Shed, st.Tenants["t"].Shed)
	}
	// Another tenant is unaffected by t's overflow.
	done := make(chan error, 1)
	go func() {
		done <- p.Do(context.Background(), Request{Tenant: "u"}, func() error { return nil })
	}()
	waitQueued(t, p, 3)

	rel()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("queued request %d: %v", i, err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("tenant u: %v", err)
	}
}

// TestPoolGlobalOverflowShedsHeaviest: when the global queue overflows, the
// heaviest tenant's newest waiter is evicted — a light tenant's request is
// admitted to the queue, not rejected.
func TestPoolGlobalOverflowShedsHeaviest(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 1, MaxQueue: 2})
	rel := occupy(t, p, Request{Tenant: "heavy"})

	heavy := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			heavy <- p.Do(context.Background(), Request{Tenant: "heavy"}, func() error { return nil })
		}()
		waitQueued(t, p, 1+i)
	}

	// The light tenant's request overflows the global queue; the heavy
	// tenant's newest waiter takes the eviction instead.
	light := make(chan error, 1)
	go func() {
		light <- p.Do(context.Background(), Request{Tenant: "light"}, func() error { return nil })
	}()
	if err := <-heavy; !errors.Is(err, ErrShed) {
		t.Fatalf("evicted heavy waiter err = %v, want ErrShed", err)
	}
	waitQueued(t, p, 2)

	rel()
	if err := <-light; err != nil {
		t.Fatalf("light tenant err = %v, want admission", err)
	}
	if err := <-heavy; err != nil {
		t.Fatalf("surviving heavy waiter: %v", err)
	}
	st := p.Stats()
	if st.Tenants["heavy"].Shed != 1 || st.Tenants["light"].Shed != 0 {
		t.Fatalf("shed = heavy %d / light %d, want 1 / 0",
			st.Tenants["heavy"].Shed, st.Tenants["light"].Shed)
	}
}

// TestPoolOverflowSheddingRequesterIsHeaviest: when the overflowing requester
// itself belongs to the heaviest queue, it is the one shed.
func TestPoolOverflowSheddingRequesterIsHeaviest(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 1, MaxQueue: 1})
	rel := occupy(t, p, Request{Tenant: "t"})
	defer rel()

	queued := make(chan error, 1)
	go func() {
		queued <- p.Do(context.Background(), Request{Tenant: "t"}, func() error { return nil })
	}()
	waitQueued(t, p, 1)

	if err := p.Do(context.Background(), Request{Tenant: "t"}, func() error { return nil }); !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed (requester is the heaviest queue)", err)
	}
	select {
	case err := <-queued:
		t.Fatalf("older waiter was evicted instead: %v", err)
	default:
	}
}

// TestPoolCancelWhileQueuedReleasesSlot: a waiter abandoning the queue frees
// its queue slot, and the pool keeps serving.
func TestPoolCancelWhileQueuedReleasesSlot(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 1, MaxQueue: -1})
	rel := occupy(t, p, Request{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		done <- p.Do(ctx, Request{}, func() error { return nil })
	}()
	waitQueued(t, p, 1)
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	waitQueued(t, p, 0)

	rel()
	// Units and queue slots are all back: an unrelated request runs.
	if err := p.Do(context.Background(), Request{}, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	if st.Active != 0 || st.Queued != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
}

// TestPoolSheddingWindow: shed events surface through Shedding within the
// window and age out of a tiny one.
func TestPoolSheddingWindow(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 1, MaxQueue: -1, TenantQueue: 1})
	rel := occupy(t, p, Request{Tenant: "t"})
	queued := make(chan error, 1)
	go func() {
		queued <- p.Do(context.Background(), Request{Tenant: "t"}, func() error { return nil })
	}()
	waitQueued(t, p, 1)
	if err := p.Do(context.Background(), Request{Tenant: "t"}, func() error { return nil }); !errors.Is(err, ErrShed) {
		t.Fatalf("err = %v, want ErrShed", err)
	}

	if got := p.Shedding(time.Minute); len(got) != 1 {
		t.Fatalf("Shedding(1m) = %v, want one tenant", got)
	}
	if p.Shedding(0) != nil {
		t.Fatal("Shedding(0) reported events")
	}
	time.Sleep(5 * time.Millisecond)
	if got := p.Shedding(time.Nanosecond); got != nil {
		t.Fatalf("Shedding(1ns) = %v, want aged out", got)
	}
	rel()
	if err := <-queued; err != nil {
		t.Fatalf("surviving waiter: %v", err)
	}
}

// TestPoolTwoTenantOverload is the overload acceptance test: a heavy tenant
// floods the pool with batch work far beyond its share while a light tenant
// issues sequential interactive requests. The light tenant's p99 latency must
// stay within 2x its uncontended baseline (plus a small scheduling-noise
// floor for CI), it must see no 429/503 at all, and the heavy tenant must be
// the one shed.
func TestPoolTwoTenantOverload(t *testing.T) {
	const (
		capacity  = 4
		lightReqs = 30
		heavyConc = 16
		lightWork = 2 * time.Millisecond
		heavyWork = 5 * time.Millisecond
	)
	p := NewPool(PoolConfig{Capacity: capacity, MaxQueue: 16, TenantSlots: 2, TenantQueue: 4})

	lightOnce := func() (time.Duration, error) {
		start := time.Now()
		err := p.Do(context.Background(), Request{Tenant: "light", Priority: Interactive}, func() error {
			time.Sleep(lightWork)
			return nil
		})
		return time.Since(start), err
	}
	p99 := func(lat []time.Duration) time.Duration {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return lat[len(lat)*99/100]
	}

	// Baseline: the light tenant alone.
	base := make([]time.Duration, lightReqs)
	for i := range base {
		d, err := lightOnce()
		if err != nil {
			t.Fatalf("baseline request %d: %v", i, err)
		}
		base[i] = d
	}
	basep99 := p99(base)

	// Overload: heavy floods batch work from heavyConc goroutines — far more
	// than its queue depth, so admission control must shed it.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < heavyConc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				err := p.Do(context.Background(), Request{Tenant: "heavy", Priority: Batch}, func() error {
					time.Sleep(heavyWork)
					return nil
				})
				if err != nil && !errors.Is(err, ErrShed) && !errors.Is(err, ErrBusy) {
					t.Errorf("heavy request: %v", err)
					return
				}
				if err != nil {
					// Shed: back off briefly, as a client would.
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}

	loaded := make([]time.Duration, lightReqs)
	for i := range loaded {
		d, err := lightOnce()
		if err != nil {
			t.Fatalf("light tenant request %d failed under heavy load: %v", i, err)
		}
		loaded[i] = d
	}
	close(stop)
	wg.Wait()

	loadedp99 := p99(loaded)
	// The 25ms floor absorbs scheduler noise on loaded CI runners; the real
	// assertion is that light latency tracks the baseline, not the heavy
	// tenant's queue.
	if limit := 2*basep99 + 25*time.Millisecond; loadedp99 > limit {
		t.Fatalf("light tenant p99 under load = %v, want <= %v (baseline p99 %v)",
			loadedp99, limit, basep99)
	}
	st := p.Stats()
	if st.Tenants["heavy"].Shed == 0 {
		t.Fatal("heavy tenant was never shed despite flooding the pool")
	}
	if st.Tenants["light"].Shed != 0 {
		t.Fatalf("light tenant shed %d times", st.Tenants["light"].Shed)
	}
	t.Logf("light p99: baseline %v, under load %v; heavy shed %d of %d admitted",
		basep99, loadedp99, st.Tenants["heavy"].Shed, st.Tenants["heavy"].Admitted)
}

// poolModelTenants are the tenants of TestPoolModel's schedules.
var poolModelTenants = [3]string{"a", "b", "c"}

// modelReq is one request of a TestPoolModel schedule. started, startStep,
// done and err are written by the request's goroutine, under poolModel.mu;
// released and canceled only by poolModel.run.
type modelReq struct {
	tenant    string
	batch     bool
	cancel    context.CancelFunc
	release   chan struct{}
	released  bool
	canceled  bool
	started   bool
	startStep int
	done      bool
	err       error
}

// poolModel drives one pool through a schedule, one step at a time.
type poolModel struct {
	t     *testing.T
	p     *Pool
	share int // the pool's effective TenantSlots
	where string
	mu    sync.Mutex
	step  int
	reqs  []*modelReq
}

// TestPoolModel drives the pool through seeded random schedules — three
// tenants arriving in both lanes, releases of running requests and
// cancellations of queued ones, under random Capacity, TenantSlots,
// TenantQueue and MaxQueue — and after every step, once each request is
// running, queued or returned, checks that:
//   - no more requests execute than the pool has slots;
//   - the per-tenant counts sum to the pool's;
//   - no request waits while a slot is free (work conservation, also when
//     every waiting tenant is at its share; after a cancellation this is the
//     check that the withdrawn waiter's peers it kept out started at once,
//     not at the next release);
//   - no batch request started in the step while an interactive one that
//     could have started in its place still waits.
//
// A drained pool must read Active == 0 && Queued == 0, and every request
// must have returned the error its fate calls for. The seed is logged;
// replay a failing schedule with CHAOS_SEED=<seed>.
func TestPoolModel(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	for round := range 25 {
		cfg := PoolConfig{
			Capacity:    1 + rng.Intn(4),
			MaxQueue:    rng.Intn(8) - 1, // -1 unbounded, 0 no queue at all
			TenantSlots: rng.Intn(4),
			TenantQueue: rng.Intn(4),
		}
		m := &poolModel{t: t, p: NewPool(cfg), share: cfg.Capacity,
			where: fmt.Sprintf("seed %d round %d %+v", seed, round, cfg)}
		if cfg.TenantSlots > 0 && cfg.TenantSlots < cfg.Capacity {
			m.share = cfg.TenantSlots
		}
		m.run(rng, 80, cfg.MaxQueue == 0)
	}
}

func (m *poolModel) run(rng *rand.Rand, steps int, noQueue bool) {
	for step := 1; step <= steps; step++ {
		m.mu.Lock()
		m.step = step
		running, queued := m.partitionLocked()
		m.mu.Unlock()
		switch k := rng.Intn(10); {
		case k < 3 && len(running) > 0:
			m.release(running[rng.Intn(len(running))])
		case k < 5 && len(queued) > 0:
			r := queued[rng.Intn(len(queued))]
			r.canceled = true
			r.cancel()
		default:
			m.arrive(poolModelTenants[rng.Intn(len(poolModelTenants))], Priority(rng.Intn(2)))
		}
		m.check(m.settle(), step)
	}
	m.drain(noQueue)
}

// TestPoolConservesWorkAtShare: Capacity 4, TenantSlots 1. Tenant c runs two
// (alone, past its share), a and b run one each and queue one each; when c
// releases both, the two free slots go to a's and b's waiters, although
// each of them is at its share and the other waits too.
func TestPoolConservesWorkAtShare(t *testing.T) {
	cfg := PoolConfig{Capacity: 4, MaxQueue: -1, TenantSlots: 1}
	m := &poolModel{t: t, p: NewPool(cfg), share: 1, where: fmt.Sprintf("%+v", cfg)}
	for _, tenant := range []string{"c", "c", "a", "b", "a", "b"} {
		m.mu.Lock()
		m.step++
		m.mu.Unlock()
		m.arrive(tenant, Interactive)
		m.check(m.settle(), m.step)
	}
	m.mu.Lock()
	m.step++
	cs := m.reqs[:2]
	m.mu.Unlock()
	for _, r := range cs {
		m.release(r)
	}
	st := m.settle()
	m.check(st, m.step)
	if st.Active != 4 || st.Queued != 0 {
		t.Fatalf("after c released two slots: %+v, want a and b running two each", st)
	}
	m.drain(false)
}

// drain releases whatever runs until nothing runs or waits, then checks the
// drained pool and every request's outcome.
func (m *poolModel) drain(noQueue bool) {
	for {
		m.mu.Lock()
		m.step++
		running, queued := m.partitionLocked()
		m.mu.Unlock()
		if len(running)+len(queued) == 0 {
			break
		}
		for _, r := range running {
			m.release(r)
		}
		m.check(m.settle(), m.step)
	}
	if st := m.p.Stats(); st.Active != 0 || st.Queued != 0 {
		m.t.Fatalf("%s: drained pool reads %+v", m.where, st)
	}
	for i, r := range m.reqs {
		var want []error
		switch {
		case r.started:
			want = []error{nil}
		case r.canceled:
			want = []error{context.Canceled}
		case noQueue:
			want = []error{ErrBusy}
		default:
			want = []error{ErrShed}
		}
		if !slices.Contains(want, r.err) {
			m.t.Fatalf("%s: request %d (%+v) returned %v, want %v", m.where, i, *r, r.err, want[0])
		}
	}
}

// partitionLocked lists the running and the queued requests.
func (m *poolModel) partitionLocked() (running, queued []*modelReq) {
	for _, r := range m.reqs {
		switch {
		case r.done:
		case r.started:
			running = append(running, r)
		default:
			queued = append(queued, r)
		}
	}
	return running, queued
}

func (m *poolModel) release(r *modelReq) {
	r.released = true
	close(r.release)
}

// arrive starts a request whose work blocks until the schedule releases it.
func (m *poolModel) arrive(tenant string, pr Priority) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &modelReq{tenant: tenant, batch: pr == Batch, cancel: cancel, release: make(chan struct{})}
	m.mu.Lock()
	m.reqs = append(m.reqs, r)
	m.mu.Unlock()
	go func() {
		err := m.p.Do(ctx, Request{Tenant: tenant, Priority: pr}, func() error {
			m.mu.Lock()
			r.started, r.startStep = true, m.step
			m.mu.Unlock()
			<-r.release
			return nil
		})
		cancel()
		m.mu.Lock()
		r.done, r.err = true, err
		m.mu.Unlock()
	}()
}

// settle waits until every released or canceled request has returned and
// the pool's per-tenant counts agree with the requests' own view — each
// running, queued or returned, none in between — and returns that snapshot.
func (m *poolModel) settle() PoolStats {
	deadline := time.Now().Add(poolTestTimeout)
	for {
		st := m.p.Stats()
		m.mu.Lock()
		running, queued := m.partitionLocked()
		agree := true
		for _, r := range m.reqs {
			agree = agree && (r.done || !r.released && !r.canceled)
		}
		m.mu.Unlock()
		for _, name := range poolModelTenants {
			nr, nq := 0, 0
			for _, r := range running {
				if r.tenant == name {
					nr++
				}
			}
			for _, r := range queued {
				if r.tenant == name {
					nq++
				}
			}
			ts := st.Tenants[name]
			agree = agree && ts.InUse == nr && ts.Queued == nq
		}
		if agree {
			return st
		}
		if time.Now().After(deadline) {
			m.t.Fatalf("%s: step %d never settled: pool %+v, %d running, %d queued",
				m.where, m.step, st, len(running), len(queued))
		}
		time.Sleep(20 * time.Microsecond)
	}
}

// check holds the pool's invariants on a settled snapshot.
func (m *poolModel) check(st PoolStats, step int) {
	t := m.t
	if st.Active > int64(st.Workers) {
		t.Fatalf("%s: step %d: %d executing on %d slots", m.where, step, st.Active, st.Workers)
	}
	var inUse, queued int
	for _, ts := range st.Tenants {
		inUse += ts.InUse
		queued += ts.Queued
	}
	if int64(inUse) != st.Active || int64(queued) != st.Queued {
		t.Fatalf("%s: step %d: tenants sum to %d executing / %d queued, pool reads %+v",
			m.where, step, inUse, queued, st)
	}
	if st.Active < int64(st.Workers) && st.Queued > 0 {
		t.Fatalf("%s: step %d: %d requests wait beside a free slot: %+v", m.where, step, st.Queued, st)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, b := range m.reqs {
		if !b.batch || !b.started || b.startStep != step {
			continue
		}
		for _, i := range m.reqs {
			// The interactive waiter could have taken b's slot if it is
			// b's own tenant's, or its tenant is still below its share
			// (it was no higher when b started).
			if !i.batch && !i.started && !i.done &&
				(i.tenant == b.tenant || st.Tenants[i.tenant].InUse < m.share) {
				t.Fatalf("%s: step %d: batch request of %s started while an interactive one of %s waits: %+v",
					m.where, step, b.tenant, i.tenant, st)
			}
		}
	}
}
