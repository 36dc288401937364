package server

import (
	"context"
	"errors"
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

// TestPoolCostWeighting: request cost consumes slot units — two cost-3
// requests cannot run together on capacity 4, and a cost above capacity
// clamps to it (the request runs alone).
func TestPoolCostWeighting(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 4, MaxQueue: -1})
	rel := occupy(t, p, Request{Cost: 3})
	if got := p.Stats().Active; got != 3 {
		t.Fatalf("active units = %d, want 3", got)
	}

	done := make(chan error, 1)
	go func() {
		done <- p.Do(context.Background(), Request{Cost: 3}, func() error { return nil })
	}()
	waitQueued(t, p, 1) // only 1 unit free: the second cost-3 request waits
	rel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Cost beyond capacity clamps: the request is admissible and runs alone.
	relBig := occupy(t, p, Request{Cost: 1000})
	if got := p.Stats().Active; got != 4 {
		t.Fatalf("clamped active units = %d, want 4 (pool capacity)", got)
	}
	small := make(chan error, 1)
	go func() {
		small <- p.Do(context.Background(), Request{Cost: 1}, func() error { return nil })
	}()
	waitQueued(t, p, 1) // nothing fits beside it
	relBig()
	if err := <-small; err != nil {
		t.Fatal(err)
	}
}

// TestPoolLargeCostNotStarved: a queued expensive request must not be starved
// by a stream of cheap ones — the scheduler holds draining capacity for it.
func TestPoolLargeCostNotStarved(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 4, MaxQueue: -1})
	rels := []func(){
		occupy(t, p, Request{Tenant: "cheap", Cost: 1}),
		occupy(t, p, Request{Tenant: "cheap", Cost: 1}),
		occupy(t, p, Request{Tenant: "cheap", Cost: 1}),
		occupy(t, p, Request{Tenant: "cheap", Cost: 1}),
	}

	order := make(chan string, 9)
	bigDone := make(chan error, 1)
	go func() {
		bigDone <- p.Do(context.Background(), Request{Tenant: "big", Cost: 4}, func() error {
			order <- "big"
			return nil
		})
	}()
	waitQueued(t, p, 1)

	// A stream of cheap requests from another tenant arrives behind it. None
	// may leapfrog into the units draining toward the cost-4 waiter, even
	// though each of them would fit the moment one unit frees up.
	cheap := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func() {
			cheap <- p.Do(context.Background(), Request{Tenant: "cheap", Cost: 1}, func() error {
				order <- "cheap"
				return nil
			})
		}()
	}
	waitQueued(t, p, 9)

	for _, rel := range rels {
		rel()
	}
	select {
	case err := <-bigDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(poolTestTimeout):
		t.Fatal("cost-4 request starved by cheap stream")
	}
	for i := 0; i < 8; i++ {
		if err := <-cheap; err != nil {
			t.Fatalf("cheap request %d: %v", i, err)
		}
	}
	if first := <-order; first != "big" {
		t.Fatalf("first completed request = %q, want the held cost-4 request", first)
	}
}

// TestPoolCostAboveTenantSlots: a request costing more than -tenant-slots
// (a join running more workers than a tenant's share) is admitted once its
// tenant has nothing executing, even while another tenant waits. Two tenants
// queue such requests behind a running one; when it finishes, both complete
// in turn on an otherwise idle pool, with no deadline needed to unstick them.
func TestPoolCostAboveTenantSlots(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 2, MaxQueue: -1, TenantSlots: 1})
	rel := occupy(t, p, Request{Tenant: "a", Cost: 2})

	order := make(chan string, 2)
	done := make(chan error, 2)
	enqueue := func(tenant string) {
		go func() {
			done <- p.Do(context.Background(), Request{Tenant: tenant, Cost: 2}, func() error {
				order <- tenant
				return nil
			})
		}()
	}
	enqueue("a")
	waitQueued(t, p, 1)
	enqueue("b")
	waitQueued(t, p, 2)

	rel()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(poolTestTimeout):
			t.Fatalf("cost-2 waiters stalled on an idle pool: %+v", p.Stats())
		}
	}
	if first, second := <-order, <-order; first != "a" || second != "b" {
		t.Fatalf("admission order = %s, %s; want the older waiter (a) first", first, second)
	}
	if st := p.Stats(); st.Active != 0 || st.Queued != 0 {
		t.Fatalf("pool not drained: %+v", st)
	}
}

// TestPoolCancelOfHeldWaiterDispatches: when the waiter the pool holds
// draining capacity for gives up, the younger waiter it blocked is admitted
// at once, not at the next release.
func TestPoolCancelOfHeldWaiterDispatches(t *testing.T) {
	p := NewPool(PoolConfig{Capacity: 2, MaxQueue: -1})
	rel := occupy(t, p, Request{Tenant: "a", Cost: 1})
	defer rel()

	ctx, cancel := context.WithCancel(context.Background())
	bigDone := make(chan error, 1)
	go func() {
		bigDone <- p.Do(ctx, Request{Tenant: "big", Cost: 2}, func() error { return nil })
	}()
	waitQueued(t, p, 1)
	cheapDone := make(chan error, 1)
	go func() {
		cheapDone <- p.Do(context.Background(), Request{Tenant: "b", Cost: 1}, func() error { return nil })
	}()
	waitQueued(t, p, 2)

	cancel()
	if err := <-bigDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("held waiter: err = %v, want context.Canceled", err)
	}
	select {
	case err := <-cheapDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(poolTestTimeout):
		t.Fatalf("waiter behind a withdrawn hold was not dispatched: %+v", p.Stats())
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
