// Package storage provides the paged storage engine that all disk-based join
// algorithms in this repository share.
//
// The paper evaluates disk-based joins: the dominant costs are how many disk
// pages an algorithm reads, whether the reads are sequential or random, and
// how many element comparisons it performs. To reproduce those experiments
// without the paper's SAS disks, this package routes every data access
// through a Store that counts page reads/writes and classifies them as
// sequential or random, and a DiskModel converts the counters into modeled
// I/O time for a calibrated disk. A real file-backed store is provided as
// well, so the same code paths run against an actual filesystem.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"repro/internal/geom"
)

// DefaultPageSize is the disk page size used in the paper's evaluation
// (§VII-A sets 8KB for all approaches).
const DefaultPageSize = 8192

// PageID identifies a page within a Store. Pages are allocated sequentially
// starting at zero, so PageID order is physical disk order.
type PageID uint64

// ErrPageOutOfRange is returned when reading or writing a page that was
// never allocated.
var ErrPageOutOfRange = errors.New("storage: page id out of range")

// ErrPageSize is returned when a buffer does not match the store page size.
var ErrPageSize = errors.New("storage: buffer length does not match page size")

// Stats holds I/O counters for a Store. A read or write of page p is
// classified as sequential when the previous operation of the same kind
// touched page p-1, matching how a spinning disk would service it without a
// seek.
type Stats struct {
	Reads      uint64
	SeqReads   uint64
	RandReads  uint64
	Writes     uint64
	SeqWrites  uint64
	RandWrites uint64

	BytesRead    uint64
	BytesWritten uint64
}

// Add returns the sum of two stats snapshots.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Reads:        s.Reads + o.Reads,
		SeqReads:     s.SeqReads + o.SeqReads,
		RandReads:    s.RandReads + o.RandReads,
		Writes:       s.Writes + o.Writes,
		SeqWrites:    s.SeqWrites + o.SeqWrites,
		RandWrites:   s.RandWrites + o.RandWrites,
		BytesRead:    s.BytesRead + o.BytesRead,
		BytesWritten: s.BytesWritten + o.BytesWritten,
	}
}

// Sub returns the difference s - o; useful for measuring one phase given
// snapshots before and after it.
func (s Stats) Sub(o Stats) Stats {
	return Stats{
		Reads:        s.Reads - o.Reads,
		SeqReads:     s.SeqReads - o.SeqReads,
		RandReads:    s.RandReads - o.RandReads,
		Writes:       s.Writes - o.Writes,
		SeqWrites:    s.SeqWrites - o.SeqWrites,
		RandWrites:   s.RandWrites - o.RandWrites,
		BytesRead:    s.BytesRead - o.BytesRead,
		BytesWritten: s.BytesWritten - o.BytesWritten,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d (seq=%d rand=%d) writes=%d (seq=%d rand=%d) bytesRead=%d bytesWritten=%d",
		s.Reads, s.SeqReads, s.RandReads, s.Writes, s.SeqWrites, s.RandWrites, s.BytesRead, s.BytesWritten)
}

// Store is a page-granular storage device. A Store itself only needs to be
// safe for use from a single goroutine (the I/O trackers are unsynchronized);
// concurrent consumers — the parallel TRANSFORMERS join in particular — each
// take a view from OpenReader. A view carries its own I/O counters and its own
// sequential/random classification stream — the right model for one worker
// owning one disk queue: interleaved reads from other workers do not turn a
// worker's sequential scan into "random" accesses, and no lock sits on the
// page-read hot path.
type Store interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Alloc appends n zeroed pages and returns the ID of the first one.
	Alloc(n int) (PageID, error)
	// Write stores data (exactly one page) at id.
	Write(id PageID, data []byte) error
	// Read fills buf (exactly one page) from id.
	Read(id PageID, buf []byte) error
	// NumPages returns the number of allocated pages.
	NumPages() int
	// Stats returns the I/O counters accumulated since the store (or view)
	// was made; a phase is measured as Stats().Sub(before).
	Stats() Stats
	// OpenReader returns a read-only view over the current contents with
	// counters starting at zero; Write and Alloc on it fail (ErrReadOnly from
	// this package's stores). A view is valid only while the parent is not
	// concurrently written to or grown (Alloc); the join phase is read-only,
	// which is exactly the phase the parallel join fans out.
	OpenReader() Store
}

// ElementViewer is the by-reference read path of a store that holds its pages
// in memory: ViewElements hands a page out as the slice it is, without copying
// — a data page written through an ElementWriter as the element slice it was
// written from. The access is accounted exactly as a Read of the page is — one
// page of PageSize() bytes, sequential or random — whichever form the page is
// in.
type ElementViewer interface {
	// ViewElements returns page id the way the store holds it: the page's
	// bytes when it was written as bytes, and a nil page with the written
	// elements (none for a page never written) when it was written by
	// reference. The caller must not modify either slice; both stay valid,
	// and change only when the page is written.
	ViewElements(id PageID) (elems []geom.Element, page []byte, err error)
}

// ElementWriter is implemented by stores that can keep a data page as the
// caller's element slice. WriteElements is accounted exactly as a Write of
// one page is and retains elems (at most ElementsPerPage(PageSize()) of them)
// without copying: the caller must not modify them afterwards. A byte Read of
// the page encodes it on demand (EncodeElementsPage), and a later byte Write
// replaces it.
type ElementWriter interface {
	WriteElements(id PageID, elems []geom.Element) error
}

// viewHeld is the one page-read primitive under ReadElementPage and the LRU:
// page id in the form st holds it — by reference from an ElementViewer, read
// into buf (one page long; nil when st is known to be an ElementViewer) from
// any other store.
func viewHeld(st Store, id PageID, buf []byte) (p memPage, err error) {
	if ev, ok := st.(ElementViewer); ok {
		p.elems, p.data, err = ev.ViewElements(id)
		return p, err
	}
	if err := st.Read(id, buf); err != nil {
		return memPage{}, err
	}
	return memPage{data: buf}, nil
}

// tracker maintains Stats with sequential/random classification.
type tracker struct {
	stats         Stats
	lastRead      PageID
	lastWrite     PageID
	haveLastRead  bool
	haveLastWrite bool
}

func (t *tracker) noteRead(id PageID, n int) {
	t.stats.Reads++
	t.stats.BytesRead += uint64(n)
	if t.haveLastRead && id == t.lastRead+1 {
		t.stats.SeqReads++
	} else {
		t.stats.RandReads++
	}
	t.lastRead = id
	t.haveLastRead = true
}

func (t *tracker) noteWrite(id PageID, n int) {
	t.stats.Writes++
	t.stats.BytesWritten += uint64(n)
	if t.haveLastWrite && id == t.lastWrite+1 {
		t.stats.SeqWrites++
	} else {
		t.stats.RandWrites++
	}
	t.lastWrite = id
	t.haveLastWrite = true
}

// MemStore is an in-memory Store that simulates a disk: page contents are
// held in memory — as byte slices, or as the caller's element slices when
// written through WriteElements — and all accesses are counted. It is the
// store the benchmark harness uses, paired with a DiskModel for modeled I/O
// time. Its read side — PageSize, Read, ViewElements, NumPages, OpenReader and
// the counters — is that of the views it opens (memReader), over its own
// pages.
type MemStore struct {
	memReader
}

// memPage is one page as an in-memory store holds it: its bytes once a byte
// Write reached it, else the elements it was written from by reference — none
// for a page only allocated, which reads as the zeroed page either way.
type memPage struct {
	data  []byte
	elems []geom.Element
}

// copyTo fills buf (one page long) with the page's bytes, encoding elems when
// that is how it is held.
func (p memPage) copyTo(buf []byte) {
	if p.data != nil {
		copy(buf, p.data)
		return
	}
	// WriteElements checked the capacity: the encode cannot fail.
	_ = EncodeElementsPage(buf, p.elems)
}

// NewMemStore returns an empty MemStore with the given page size
// (DefaultPageSize if pageSize <= 0).
func NewMemStore(pageSize int) *MemStore {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemStore{memReader{pageSize: pageSize}}
}

// Alloc implements Store.
func (m *MemStore) Alloc(n int) (PageID, error) {
	if n < 0 {
		return 0, fmt.Errorf("storage: negative allocation %d", n)
	}
	first := PageID(len(m.pages))
	m.pages = append(m.pages, make([]memPage, n)...)
	return first, nil
}

// Write implements Store.
func (m *MemStore) Write(id PageID, data []byte) error {
	if len(data) != m.pageSize {
		return ErrPageSize
	}
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	p := &m.pages[id]
	if p.data == nil {
		p.data, p.elems = make([]byte, m.pageSize), nil
	}
	copy(p.data, data)
	m.trk.noteWrite(id, len(data))
	return nil
}

// WriteElements implements ElementWriter.
func (m *MemStore) WriteElements(id PageID, elems []geom.Element) error {
	if max := ElementsPerPage(m.pageSize); len(elems) > max {
		return fmt.Errorf("storage: %d elements exceed page capacity %d", len(elems), max)
	}
	if int(id) >= len(m.pages) {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, len(m.pages))
	}
	m.pages[id] = memPage{elems: elems[:len(elems):len(elems)]}
	m.trk.noteWrite(id, m.pageSize)
	return nil
}

// FileStore is a Store backed by a single file, for running the system
// against a real filesystem. It performs no caching of its own.
type FileStore struct {
	f        *os.File
	pageSize int
	numPages int
	trk      tracker
	mu       sync.Mutex
}

// NewFileStore creates (truncating) a file-backed store at path.
func NewFileStore(path string, pageSize int) (*FileStore, error) {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	return &FileStore{f: f, pageSize: pageSize}, nil
}

// PageSize implements Store.
func (s *FileStore) PageSize() int { return s.pageSize }

// Alloc implements Store.
func (s *FileStore) Alloc(n int) (PageID, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if n < 0 {
		return 0, fmt.Errorf("storage: negative allocation %d", n)
	}
	first := PageID(s.numPages)
	s.numPages += n
	if err := s.f.Truncate(int64(s.numPages) * int64(s.pageSize)); err != nil {
		return 0, fmt.Errorf("storage: grow file: %w", err)
	}
	return first, nil
}

// Write implements Store.
func (s *FileStore) Write(id PageID, data []byte) error {
	if len(data) != s.pageSize {
		return ErrPageSize
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= s.numPages {
		return fmt.Errorf("%w: write page %d of %d", ErrPageOutOfRange, id, s.numPages)
	}
	if _, err := s.f.WriteAt(data, int64(id)*int64(s.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	s.trk.noteWrite(id, len(data))
	return nil
}

// Read implements Store.
func (s *FileStore) Read(id PageID, buf []byte) error {
	if len(buf) != s.pageSize {
		return ErrPageSize
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if int(id) >= s.numPages {
		return fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, s.numPages)
	}
	if _, err := s.f.ReadAt(buf, int64(id)*int64(s.pageSize)); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	s.trk.noteRead(id, len(buf))
	return nil
}

// NumPages implements Store.
func (s *FileStore) NumPages() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.numPages
}

// Stats implements Store.
func (s *FileStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.trk.stats
}

// Close closes the underlying file.
func (s *FileStore) Close() error { return s.f.Close() }

// DiskModel converts I/O counters into modeled elapsed time for a spinning
// disk: each random access pays a seek + rotational latency, sequential
// accesses stream at the transfer rate.
type DiskModel struct {
	// Seek is the average positioning time charged per random access.
	Seek time.Duration
	// TransferBytesPerSec is the sustained sequential throughput.
	TransferBytesPerSec float64
}

// DefaultDiskModel approximates the paper's 10000 RPM SAS disks: ~5ms
// average seek + rotational latency, ~100 MB/s sustained transfer.
func DefaultDiskModel() DiskModel {
	return DiskModel{Seek: 5 * time.Millisecond, TransferBytesPerSec: 100 << 20}
}

// ReadTime returns the modeled time to perform the reads recorded in s.
func (m DiskModel) ReadTime(s Stats) time.Duration {
	return m.accessTime(s.RandReads, s.BytesRead)
}

// WriteTime returns the modeled time to perform the writes recorded in s.
func (m DiskModel) WriteTime(s Stats) time.Duration {
	return m.accessTime(s.RandWrites, s.BytesWritten)
}

// IOTime returns the modeled total read+write time for s.
func (m DiskModel) IOTime(s Stats) time.Duration {
	return m.ReadTime(s) + m.WriteTime(s)
}

func (m DiskModel) accessTime(randAccesses, bytes uint64) time.Duration {
	seek := time.Duration(randAccesses) * m.Seek
	var transfer time.Duration
	if m.TransferBytesPerSec > 0 {
		transfer = time.Duration(float64(bytes) / m.TransferBytesPerSec * float64(time.Second))
	}
	return seek + transfer
}
