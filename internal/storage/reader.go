package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/geom"
)

// ErrReadOnly is returned by writes and allocations on a store reader.
var ErrReadOnly = errors.New("storage: store reader is read-only")

// ReaderOpener is implemented by stores that can hand out independent
// read-only views for concurrent use. Each view carries its own I/O counters
// and its own sequential/random classification stream — the right model for
// one worker owning one disk queue: interleaved reads from other workers do
// not turn a worker's sequential scan into "random" accesses, and no lock
// sits on the page-read hot path.
//
// A reader is valid only while the parent store is not concurrently written
// to or grown (Alloc); the join phase is read-only, which is exactly the
// phase the parallel join fans out.
type ReaderOpener interface {
	// OpenReader returns a read-only Store view over the current contents.
	// Write and Alloc on the view fail with ErrReadOnly.
	OpenReader() Store
}

// OpenReaders returns n stores that can serve reads concurrently over st,
// each with independent I/O counters starting at zero. Stores implementing
// ReaderOpener (MemStore, FileStore) hand out native lock-free views; any
// other Store is serialized behind one mutex shared by every reader of that
// store — across OpenReaders calls too, so independent concurrent joins and
// range queries over the same index (the serving workload) stay serialized
// against each other, not just within one call's reader set.
func OpenReaders(st Store, n int) []Store {
	if n < 1 {
		n = 1
	}
	out := make([]Store, n)
	if ro, ok := st.(ReaderOpener); ok {
		for i := range out {
			out[i] = ro.OpenReader()
		}
		return out
	}
	mu := fallbackMutex(st)
	for i := range out {
		out[i] = &lockedReader{st: st, mu: mu}
	}
	return out
}

// fallbackMutexes maps a non-ReaderOpener store to its shared reader mutex.
// Entries live as long as the process (one pointer per distinct store that
// ever took the fallback path — the repo's own stores all implement
// ReaderOpener, so the registry stays empty unless callers bring their own).
var fallbackMutexes sync.Map // Store -> *sync.Mutex

func fallbackMutex(st Store) *sync.Mutex {
	if mu, ok := fallbackMutexes.Load(st); ok {
		return mu.(*sync.Mutex)
	}
	mu, _ := fallbackMutexes.LoadOrStore(st, new(sync.Mutex))
	return mu.(*sync.Mutex)
}

// memReader is a lock-free read-only view of a MemStore, and the read side of
// the MemStore itself. Page contents are shared with the parent (View and
// ViewElements hand the page slices out, Read copies out of them), so views
// cost O(1) memory each.
type memReader struct {
	pages    []memPage
	pageSize int
	trk      tracker
}

// OpenReader implements ReaderOpener.
func (m *MemStore) OpenReader() Store {
	return &memReader{pages: m.pages, pageSize: m.pageSize}
}

func (r *memReader) PageSize() int { return r.pageSize }

func (r *memReader) Alloc(int) (PageID, error) { return 0, ErrReadOnly }

func (r *memReader) Write(PageID, []byte) error { return ErrReadOnly }

func (r *memReader) Read(id PageID, buf []byte) error {
	if len(buf) != r.pageSize {
		return ErrPageSize
	}
	p, err := r.view(id)
	if err == nil {
		p.copyTo(buf)
	}
	return err
}

// View implements PageViewer.
func (r *memReader) View(id PageID) ([]byte, error) {
	p, err := r.view(id)
	if err != nil {
		return nil, err
	}
	return p.bytes(r.pageSize), nil
}

// ViewElements implements ElementViewer.
func (r *memReader) ViewElements(id PageID) ([]geom.Element, []byte, error) {
	p, err := r.view(id)
	return p.elems, p.data, err
}

// view is the one page access of a MemStore and its readers: the page as it
// is held, counted as one read of a page's bytes.
func (r *memReader) view(id PageID) (memPage, error) {
	if int(id) >= len(r.pages) {
		return memPage{}, fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, len(r.pages))
	}
	r.trk.noteRead(id, r.pageSize)
	return r.pages[id], nil
}

func (r *memReader) NumPages() int { return len(r.pages) }

func (r *memReader) Stats() Stats { return r.trk.stats }

func (r *memReader) ResetStats() { r.trk.reset() }

// fileReader is a read-only view of a FileStore. os.File.ReadAt is safe for
// concurrent use, so reads take no lock; the page count is snapshotted at
// open time.
type fileReader struct {
	f        *os.File
	pageSize int
	numPages int
	trk      tracker
}

// OpenReader implements ReaderOpener.
func (s *FileStore) OpenReader() Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return &fileReader{f: s.f, pageSize: s.pageSize, numPages: s.numPages}
}

func (r *fileReader) PageSize() int { return r.pageSize }

func (r *fileReader) Alloc(int) (PageID, error) { return 0, ErrReadOnly }

func (r *fileReader) Write(PageID, []byte) error { return ErrReadOnly }

func (r *fileReader) Read(id PageID, buf []byte) error {
	if len(buf) != r.pageSize {
		return ErrPageSize
	}
	if int(id) >= r.numPages {
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, r.numPages)
	}
	if _, err := r.f.ReadAt(buf, int64(id)*int64(r.pageSize)); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	r.trk.noteRead(id, len(buf))
	return nil
}

func (r *fileReader) NumPages() int { return r.numPages }

func (r *fileReader) Stats() Stats { return r.trk.stats }

func (r *fileReader) ResetStats() { r.trk.reset() }

// lockedReader serializes reads over a store with no native concurrent view
// support. Counters are still per-reader (the tracker is touched only by the
// owning worker), so I/O attribution matches the lock-free readers; the
// wrapped store's own counters advance as well, which is harmless since the
// parallel join reports reader counters only.
type lockedReader struct {
	st  Store
	mu  *sync.Mutex
	trk tracker
}

func (r *lockedReader) PageSize() int { return r.st.PageSize() }

func (r *lockedReader) Alloc(int) (PageID, error) { return 0, ErrReadOnly }

func (r *lockedReader) Write(PageID, []byte) error { return ErrReadOnly }

func (r *lockedReader) Read(id PageID, buf []byte) error {
	r.mu.Lock()
	err := r.st.Read(id, buf)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	r.trk.noteRead(id, len(buf))
	return nil
}

func (r *lockedReader) NumPages() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st.NumPages()
}

func (r *lockedReader) Stats() Stats { return r.trk.stats }

func (r *lockedReader) ResetStats() { r.trk.reset() }
