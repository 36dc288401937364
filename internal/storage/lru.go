package storage

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
// A page is held the way the wrapped store hands it out: by reference over a
// PageViewer (an in-memory store: caching it costs one slot, no bytes), in a
// buffer of its own over any other store. Slots and the index are reused
// across evictions and Reset, so over an in-memory store a warm cache
// allocates nothing.
type LRU struct {
	Store
	copies   bool // the wrapped store is no PageViewer: misses read into new buffers
	capacity int
	index    map[PageID]int32 // page → slot
	slots    []lruSlot
	head     int32 // most recently used slot; -1 when empty
	tail     int32 // least recently used slot
}

type lruSlot struct {
	id         PageID
	data       []byte
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
	_, byRef := store.(PageViewer)
	c.copies = !byRef
	clear(c.index)
	clear(c.slots) // let go of the pages
	c.slots = c.slots[:0]
	c.head, c.tail = -1, -1
}

// View implements PageViewer, serving from cache when possible.
func (c *LRU) View(id PageID) ([]byte, error) {
	if i, ok := c.index[id]; ok {
		c.unlink(i)
		c.pushFront(i)
		return c.slots[i].data, nil
	}
	var buf []byte
	if c.copies {
		buf = make([]byte, c.PageSize())
	}
	data, err := ViewPage(c.Store, id, buf)
	if err != nil || c.capacity <= 0 {
		return data, err
	}
	i := c.tail
	if len(c.slots) < c.capacity {
		i = int32(len(c.slots))
		c.slots = append(c.slots, lruSlot{})
	} else {
		c.unlink(i)
		delete(c.index, c.slots[i].id)
	}
	c.slots[i].id, c.slots[i].data = id, data
	c.pushFront(i)
	c.index[id] = i
	return data, nil
}

// Read implements Store, serving from cache when possible.
func (c *LRU) Read(id PageID, buf []byte) error {
	if len(buf) != c.PageSize() {
		return ErrPageSize
	}
	data, err := c.View(id)
	copy(buf, data)
	return err
}

// Write implements Store, keeping the cache coherent.
func (c *LRU) Write(id PageID, data []byte) error {
	if err := c.Store.Write(id, data); err != nil {
		return err
	}
	if i, ok := c.index[id]; ok {
		copy(c.slots[i].data, data)
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
