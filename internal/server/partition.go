package server

import (
	"cmp"
	"context"
	"time"

	"repro/internal/engine/inmem"
	"repro/internal/engine/planner"
	"repro/internal/obs"
)

// partKey identifies one pair partition by exactly what it was built from:
// the two generations (pointer identity — never (name, version), which two
// catalogs in one process share), the delta prefix each side had absorbed,
// and the distance whose §VIII expansion is baked into the boxes. Every
// write changes a generation or an epoch, so a partition of overwritten
// state can never be looked up again.
type partKey struct {
	genA, genB     *generation
	epochA, epochB uint64
	distance       float64
}

// partEntry is one built (or building) pair partition: the inmem engine's
// counterpart of a dataset's index, and unlike it built on first use and a
// second structure over the data, worth evicting. ready is closed when the
// build finishes; refs pins the entry against eviction while joins run on it.
type partEntry struct {
	key     partKey
	ready   chan struct{}
	part    *inmem.Partitioned
	refs    int
	lastUse uint64
	// once marks a partition too large to keep resident: it serves the joins
	// that are waiting for it and is forgotten when one of them releases it.
	once bool
}

// PartitionHandle pins one pair partition until Release is called, and
// carries the two-dataset view it was built from: the versions, delta epochs
// and delta sizes of both sides as of one lock acquisition.
type PartitionHandle struct {
	cat       *Catalog
	entry     *partEntry
	pinned    bool
	Partition *inmem.Partitioned

	VersionA, VersionB uint64
	EpochA, EpochB     uint64
	DeltaA, DeltaB     int
	// Hit reports that the partition was already resident (or building) when
	// this acquisition arrived; Build is the time this acquisition spent
	// building it — zero on a hit.
	Hit   bool
	Build time.Duration
}

// Release unpins the partition; idempotent. It stays resident, subject to the
// catalog's LRU, unless it was too large to keep.
func (h *PartitionHandle) Release() {
	if h == nil || !h.pinned {
		return
	}
	h.pinned = false
	c, e := h.cat, h.entry
	c.mu.Lock()
	e.refs--
	c.clock++
	e.lastUse = c.clock
	if e.once {
		c.forgetLocked(e)
	}
	c.evictLocked()
	c.mu.Unlock()
}

// Forget removes the partition from the catalog — for the caller that stored
// the join's result where every repeat will find it first. Joins still
// running on the partition keep it alive until they return. Nil-safe,
// idempotent, valid before or after Release.
func (h *PartitionHandle) Forget() {
	if h == nil {
		return
	}
	h.cat.mu.Lock()
	h.cat.forgetLocked(h.entry)
	h.cat.mu.Unlock()
}

func (c *Catalog) forgetLocked(e *partEntry) {
	if c.partitions[e.key] == e {
		delete(c.partitions, e.key)
	}
}

// readyPartitionsLocked counts the built resident partitions and their bytes.
func (c *Catalog) readyPartitionsLocked() (n int, bytes int64) {
	for _, e := range c.partitions {
		if isReady(e.ready) {
			n++
			bytes += int64(e.part.Bytes())
		}
	}
	return n, bytes
}

func isReady(ready chan struct{}) bool {
	select {
	case <-ready:
		return true
	default:
		return false
	}
}

// evictLocked drops least-recently-used unpinned partitions until the built
// count is within the cap. Pinned or still-building ones are never evicted;
// if everything is protected the catalog temporarily overflows.
func (c *Catalog) evictLocked() {
	for {
		if parts, _ := c.readyPartitionsLocked(); parts <= c.maxIndexes {
			return
		}
		var victim *partEntry
		for _, e := range c.partitions {
			if e.refs == 0 && isReady(e.ready) && (victim == nil || e.lastUse < victim.lastUse) {
				victim = e
			}
		}
		if victim == nil {
			return
		}
		delete(c.partitions, victim.key)
		c.evictions++
	}
}

// AcquirePartition returns a pinned handle on the inmem stripe partition of
// datasets a and b at the given distance, building it if the pair's current
// state has none. Both current generations and their delta heads are pinned
// under one lock acquisition — one consistent two-dataset view — and the
// partition covers base + delta of each side with the §VIII expansion
// applied, so a join over it equals a full rebuild by construction.
// Concurrent acquisitions of one state share one build (single-flight). The
// build cannot fail and ignores ctx: a builder whose request has expired
// still publishes for the waiters, and its own join then stops at its next
// context check; a waiter whose request expires gives up its pin and leaves.
// A pair too large for the planner to route to inmem is built for the joins
// waiting on it and not kept. The caller must Release the handle when done.
func (c *Catalog) AcquirePartition(ctx context.Context, a, b string, distance float64) (*PartitionHandle, error) {
	if err := validExpand(distance); err != nil {
		return nil, err
	}
	c.mu.Lock()
	dsA, errA := c.datasetLocked(a)
	dsB, errB := c.datasetLocked(b)
	if err := cmp.Or(errA, errB); err != nil {
		c.mu.Unlock()
		return nil, err
	}
	ga, gb := dsA.cur, dsB.cur
	key := partKey{genA: ga, genB: gb, epochA: ga.deltaEpoch, epochB: gb.deltaEpoch, distance: distance}
	h := &PartitionHandle{
		cat: c, pinned: true,
		VersionA: ga.version, VersionB: gb.version,
		EpochA: ga.deltaEpoch, EpochB: gb.deltaEpoch,
		DeltaA: len(ga.delta), DeltaB: len(gb.delta),
	}
	c.acquires++
	c.clock++
	if e, ok := c.partitions[key]; ok {
		c.indexHits++
		e.refs++
		e.lastUse = c.clock
		c.mu.Unlock()
		h.entry = e
		select {
		case <-e.ready: // single-flight: wait for the (possibly in-flight) build
		case <-ctx.Done():
			h.Release()
			return nil, ctx.Err()
		}
		h.Partition, h.Hit = e.part, true
		return h, nil
	}

	// First acquirer builds; later ones take the branch above and wait.
	elements := len(ga.elems) + len(ga.delta) + len(gb.elems) + len(gb.delta)
	e := &partEntry{
		key: key, ready: make(chan struct{}), refs: 1, lastUse: c.clock,
		once: elements > planner.DefaultMaxInMemoryElements,
	}
	c.partitions[key] = e
	c.builds++
	// The partition reads these arrays for as long as it lives and copies
	// neither: a generation's elems are never written once installed, and the
	// full-slice-expression delta headers, as in Snapshot, end where appends
	// begin. The §VIII expansion is the inputs' Grow, applied as they are read.
	inA := inmem.Input{Base: ga.elems, Delta: ga.delta[:len(ga.delta):len(ga.delta)], Grow: distance / 2}
	inB := inmem.Input{Base: gb.elems, Delta: gb.delta[:len(gb.delta):len(gb.delta)], Grow: distance / 2}
	observer := c.buildObserver
	c.mu.Unlock()

	_, span := obs.Start(ctx, "partition-build")
	start := time.Now()
	part := inmem.PartitionInputs(inA, inB, inmem.Config{})
	h.Build = time.Since(start)
	span.End()
	span.Add("elements", int64(elements))
	if observer != nil {
		observer(h.Build, true)
	}

	c.mu.Lock()
	e.part = part
	close(e.ready)
	c.evictLocked()
	c.mu.Unlock()
	h.entry, h.Partition = e, part
	return h, nil
}
