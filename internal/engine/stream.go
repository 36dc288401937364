package engine

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/geom"
)

// EmitFunc receives one result pair as the engine finds it. Returning a
// non-nil error aborts the join: the engine stops within its worker budget
// (each worker finishes at most its current pivot/tile/probe row) and the
// entry point returns the error. Engines never call an EmitFunc concurrently
// — parallel emitters are serialized — so an emit body may write to a
// response stream or append to a slice without its own locking.
type EmitFunc func(geom.Pair) error

// sink adapts an element-pair emit callback (what the native join kernels
// produce) to a caller's EmitFunc: it serializes concurrent emitters, turns
// the first emit error into a sticky abort, and exposes the abort as an
// atomic flag the kernels' cooperative-stop hooks watch. A is always the
// element of the first input.
type sink struct {
	mu     sync.Mutex
	locked bool
	out    EmitFunc
	// stop is raised on the first emit error (or context cancellation via
	// watch); inner engines poll it between pivots/tiles/probe rows, which
	// bounds how many further pairs each worker may still report.
	stop atomic.Bool
	err  error
}

// newSink wraps emit; parallel selects mutex serialization for engines whose
// workers emit concurrently (any Parallelism other than 0 or 1, including
// negative = all cores).
func newSink(emit EmitFunc, parallel bool, opt Options) *sink {
	return &sink{out: emit, locked: parallel && opt.Parallelism != 0 && opt.Parallelism != 1}
}

// send forwards one element pair to the caller's emit unless the sink has
// already failed.
func (s *sink) send(a, b geom.Element) { s.sendIDs(a.ID, b.ID) }

// oriented is send for kernels that pick their own first side (gipsy's sparse
// guide, grid's build set): firstIsA tells whether the kernel's first element
// comes from the caller's A, and the caller's A/B order is restored when not.
func (s *sink) oriented(firstIsA bool) func(x, y geom.Element) {
	if firstIsA {
		return s.send
	}
	return func(x, y geom.Element) { s.send(y, x) }
}

// sendIDs is send for kernels that work on flat ID arrays (the SoA in-memory
// join) instead of materialized elements — same serialization, same sticky
// abort, no Element construction on the hot path.
func (s *sink) sendIDs(aID, bID uint64) {
	if s.locked {
		s.mu.Lock()
		defer s.mu.Unlock()
	}
	if s.err != nil {
		return
	}
	if err := s.out(geom.Pair{A: aID, B: bID}); err != nil {
		s.err = err
		s.stop.Store(true)
	}
}

// failed reports whether the join should abort — for engines whose stop
// check lives in the adapter loop rather than a kernel.
func (s *sink) failed() bool { return s.stop.Load() }

// flag is the cooperative-abort flag kernels take in their configs.
func (s *sink) flag() *atomic.Bool { return &s.stop }

// watch raises the abort flag when ctx is canceled, so a join whose emit is
// never reached (long pair-free stretches) still stops within the worker
// budget. The returned func releases the watcher; call it before returning.
func (s *sink) watch(ctx context.Context) (release func()) {
	done := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			s.stop.Store(true)
		case <-done:
		}
	}()
	return func() { close(done) }
}

// finish resolves the join's error after the kernel returned: context
// cancellation wins (the caller asked to abort), then the first emit error.
// All emitters are done by now (the kernels join their workers), so the
// sticky error is read without the lock.
func (s *sink) finish(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.err
}
