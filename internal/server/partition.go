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
// the two generations whose bases it covers (pointer identity — never
// (name, version), which two catalogs in one process share) and the distance
// whose §VIII expansion is baked into the boxes. A generation's base is never
// written, so a partition answers for its key as long as it lives; the append
// deltas compose on top of it (deltaJoin). Every write still drops the
// partitions of the generation it wrote (invalidateLocked), and "auto" leaves
// inmem for a pair that has taken an append (partitionRetired, plan.go).
type partKey struct {
	genA, genB *generation
	distance   float64
}

// partEntry is one built (or building) pair partition: the inmem engine's
// counterpart of a dataset's index, and unlike it built on first use and a
// second structure over the data, worth evicting. ready is closed when the
// build finishes. A join holds the *inmem.Partitioned it reads, as it holds
// an index, so eviction only forgets the entry.
type partEntry struct {
	key     partKey
	ready   chan struct{}
	part    *inmem.Partitioned
	lastUse uint64
}

// PartitionHandle is one acquisition of a pair partition, and the
// two-dataset view it was taken with: each side's version, delta epoch, base
// and capped delta header, as of one lock acquisition.
type PartitionHandle struct {
	Partition *inmem.Partitioned
	a, b      view
	// Hit reports that the partition was already resident (or building) when
	// this acquisition arrived; Build is the time this acquisition spent
	// building it — zero on a hit.
	Hit   bool
	Build time.Duration
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

// evictLocked drops least-recently-used built partitions until their count is
// within the cap. Building ones are neither counted nor evicted.
func (c *Catalog) evictLocked() {
	for {
		if parts, _ := c.readyPartitionsLocked(); parts <= c.maxIndexes {
			return
		}
		var victim *partEntry
		for _, e := range c.partitions {
			if isReady(e.ready) && (victim == nil || e.lastUse < victim.lastUse) {
				victim = e
			}
		}
		delete(c.partitions, victim.key)
		c.evictions++
	}
}

// AcquirePartition returns the inmem stripe partition of the bases of
// datasets a and b at the given distance, building it if the pair's current
// generations have none, and both sides' views — version, delta epoch, base
// and delta header — taken under the same lock acquisition: one consistent
// two-dataset view. The partition covers the two bases with the §VIII
// expansion applied; the join composes the deltas of the views on top
// (deltaJoin), so the whole equals a full rebuild by construction.
// Concurrent acquisitions of one key share one build (single-flight). The
// build cannot fail and ignores ctx: a builder whose request has expired
// still publishes for the waiters, and its own join then stops at its next
// context check; a waiter whose request expires leaves. A pair too large for
// the planner to route to inmem is built for the joins waiting on it and not
// kept: its builder forgets it right after publishing.
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
	key := partKey{genA: ga, genB: gb, distance: distance}
	h := &PartitionHandle{a: ga.viewLocked(), b: gb.viewLocked()}
	c.acquires++
	c.clock++
	if e, ok := c.partitions[key]; ok {
		c.indexHits++
		e.lastUse = c.clock
		c.mu.Unlock()
		select {
		case <-e.ready: // single-flight: wait for the (possibly in-flight) build
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		h.Partition, h.Hit = e.part, true
		return h, nil
	}

	// First acquirer builds; later ones take the branch above and wait.
	elements := ga.elems.Len() + gb.elems.Len()
	e := &partEntry{key: key, ready: make(chan struct{}), lastUse: c.clock}
	c.partitions[key] = e
	c.builds++
	// The partition reads the two base arrays for as long as it lives and
	// copies neither: a generation's elems are never written once installed.
	// The §VIII expansion is the inputs' Grow, applied as they are read.
	inA := inmem.Input{Base: ga.elems, Grow: distance / 2}
	inB := inmem.Input{Base: gb.elems, Grow: distance / 2}
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
	if elements > planner.DefaultMaxInMemoryElements && c.partitions[key] == e {
		delete(c.partitions, key)
	}
	c.evictLocked()
	c.mu.Unlock()
	h.Partition = part
	return h, nil
}
