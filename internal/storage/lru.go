package storage

import "repro/internal/geom"

// LRU is a page-granular read cache wrapping a Store. Reads served from the
// cache do not touch the underlying store and are therefore invisible to its
// I/O counters — exactly like a buffer pool in front of a disk. Writes go
// through to the store and update the cached copy.
//
// The R-tree join uses it to keep hot inner nodes pinned (the synchronized
// traversal revisits them constantly), GIPSY uses a small one so consecutive
// guide elements crawling the same pages do not re-read them, and every side
// of a TRANSFORMERS join reads through one.
//
// A page is held the way the wrapped store hands it out: by reference over an
// ElementViewer (an in-memory store: caching it costs one slot, no bytes —
// the element slice it was written from when the store holds it so) and in a
// buffer of its own over any other store. Slots and the index are reused
// across evictions and Reset, so over an in-memory store a warm cache
// allocates nothing.
type LRU struct {
	Store
	copies   bool // the wrapped store is no ElementViewer: misses read into new buffers
	capacity int
	index    map[PageID]int32 // page → slot
	slots    []lruSlot
	head     int32 // most recently used slot; -1 when empty
	tail     int32 // least recently used slot
}

type lruSlot struct {
	id         PageID
	page       memPage
	prev, next int32
}

// NewLRU wraps store with a cache of the given capacity in pages. A
// capacity <= 0 disables caching (every read goes through).
func NewLRU(store Store, capacity int) *LRU {
	c := &LRU{index: make(map[PageID]int32)}
	c.Reset(store, capacity)
	return c
}

// Reset makes c what NewLRU(store, capacity) returns — every cached page
// dropped, so the next run of reads starts cold and is counted so by the
// store — inside the allocations c already holds.
func (c *LRU) Reset(store Store, capacity int) {
	c.Store = store
	c.capacity = capacity
	_, byRef := store.(ElementViewer)
	c.copies = !byRef
	clear(c.index)
	clear(c.slots) // let go of the pages
	c.slots = c.slots[:0]
	c.head, c.tail = -1, -1
}

// ViewElements implements ElementViewer, serving from cache when possible.
func (c *LRU) ViewElements(id PageID) ([]geom.Element, []byte, error) {
	p, err := c.view(id)
	return p.elems, p.data, err
}

// view is the one cached page access: the page as the wrapped store holds it,
// a hit invisible to the store and a miss counted there as one read.
func (c *LRU) view(id PageID) (memPage, error) {
	if i, ok := c.index[id]; ok {
		c.unlink(i)
		c.pushFront(i)
		return c.slots[i].page, nil
	}
	var buf []byte
	if c.copies {
		buf = make([]byte, c.PageSize())
	}
	page, err := viewHeld(c.Store, id, buf)
	if err != nil || c.capacity <= 0 {
		return page, err
	}
	i := c.tail
	if len(c.slots) < c.capacity {
		i = int32(len(c.slots))
		c.slots = append(c.slots, lruSlot{})
	} else {
		c.unlink(i)
		delete(c.index, c.slots[i].id)
	}
	c.slots[i].id, c.slots[i].page = id, page
	c.pushFront(i)
	c.index[id] = i
	return page, nil
}

// Read implements Store, serving from cache when possible.
func (c *LRU) Read(id PageID, buf []byte) error {
	if len(buf) != c.PageSize() {
		return ErrPageSize
	}
	p, err := c.view(id)
	if err == nil {
		p.copyTo(buf)
	}
	return err
}

// Write implements Store, keeping the cache coherent.
func (c *LRU) Write(id PageID, data []byte) error {
	if err := c.Store.Write(id, data); err != nil {
		return err
	}
	if i, ok := c.index[id]; ok {
		p := &c.slots[i].page
		if p.data == nil {
			// Held as elements the write just replaced in the store.
			p.data, p.elems = make([]byte, len(data)), nil
		}
		copy(p.data, data)
		c.unlink(i)
		c.pushFront(i)
	}
	return nil
}

func (c *LRU) unlink(i int32) {
	s := &c.slots[i]
	if s.prev >= 0 {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next >= 0 {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

func (c *LRU) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = -1, c.head
	if c.head >= 0 {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}
