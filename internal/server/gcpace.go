package server

import (
	"math"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
)

// minHeadroom is the least headroom the pacer leaves above the live heap. The
// live heap above the catalog's resident bytes — a join's or an upload's
// working set — is what gets headroom, and in the benchmark's join windows it
// is 1–2 MB; a floor at the runtime's own minimum heap goal (4 MiB at
// GOGC=100) left 4 MiB whatever the working set. The floor bounds how often a
// daemon whose live heap is all catalog collects: once per MiB allocated.
const minHeadroom = 1 << 20

// pacedPercent is the GC percent that sets the next heap goal at live +
// max(minHeadroom, live − resident): headroom for the working set, none for
// what the catalog holds until its data changes. base is the process's GC
// percent; the result is never above it, so no goal is higher than base's,
// and a negative base (GOGC=off) is returned as it is. resident ≥ live, as
// right after an install, gets the floor.
func pacedPercent(base int, live, resident int64) int {
	if base < 0 || live <= 0 {
		return base
	}
	headroom := max(live-resident, minHeadroom)
	p := int(math.Ceil(float64(base) * float64(headroom) / float64(live)))
	return min(max(p, 1), base)
}

// gcPacer applies pacedPercent once per GC cycle, from a finalizer on a
// sentinel that re-arms itself.
type gcPacer struct {
	base int

	mu      sync.Mutex
	stopped bool
	percent int
	live    []metrics.Sample
}

// gcSentinel is the object whose finalizer runs the pacer. It is 16 B and
// holds pointers, so it never lands in the tiny allocator, whose blocks
// outlive their objects. Only the armed chain holds the catalog: stop holds
// the pacer alone, so once the chain ends the catalog is the collector's.
type gcSentinel struct {
	p   *gcPacer
	cat *Catalog
}

// PaceGC starts pacing the collector against the catalog: after every cycle
// it sets the GC percent so that the next heap goal is live + max(1 MiB,
// live − resident), where resident is the catalog's ResidentBytes. The
// percent it starts from, and never exceeds, is the process's (GOGC, 100 by
// default); with GOGC=off it does nothing. The returned stop ends the pacing
// and restores that percent. A library does not change its process's GC
// settings: the daemon's main calls this, once.
func (s *Service) PaceGC() (stop func()) {
	gogc := []metrics.Sample{{Name: "/gc/gogc:percent"}}
	metrics.Read(gogc)
	base := int(int64(gogc[0].Value.Uint64())) // GOGC=off reads as -1
	if base < 0 {
		return func() {}
	}
	p := &gcPacer{
		base:    base,
		percent: base,
		live:    []metrics.Sample{{Name: "/gc/heap/live:bytes"}},
	}
	arm(&gcSentinel{p: p, cat: s.cat})
	return p.stop
}

// arm sets the sentinel's finalizer: the next cycle that finds the sentinel
// unreachable runs the pacer, which re-arms it unless it was stopped.
func arm(sen *gcSentinel) {
	runtime.SetFinalizer(sen, func(sen *gcSentinel) {
		if sen.p.cycle(sen.cat) {
			arm(sen)
		}
	})
}

// cycle applies the rule to the cycle that just ended, against cat's
// resident bytes, and reports whether the pacer is still running.
func (p *gcPacer) cycle(cat *Catalog) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.stopped {
		return false
	}
	metrics.Read(p.live)
	if next := pacedPercent(p.base, int64(p.live[0].Value.Uint64()), cat.Stats().ResidentBytes); next != p.percent {
		p.percent = next
		debug.SetGCPercent(next)
	}
	return true
}

// stop ends the pacing: the armed sentinel's finalizer re-arms nothing, and
// the process's percent is what it was before PaceGC. A second call does
// nothing more.
func (p *gcPacer) stop() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.stopped = true
	if p.percent != p.base {
		p.percent = p.base
		debug.SetGCPercent(p.base)
	}
}
