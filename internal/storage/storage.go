// Package storage provides the paged storage engine that all disk-based join
// algorithms in this repository share.
//
// The paper evaluates disk-based joins: the dominant costs are how many disk
// pages an algorithm reads, whether the reads are sequential or random, and
// how many element comparisons it performs. To reproduce those experiments
// without the paper's SAS disks, this package routes every data access
// through a Store that counts page reads/writes and classifies them as
// sequential or random, and a DiskModel converts the counters into modeled
// I/O time for a calibrated disk. A page is the elements written to it: the
// in-memory store keeps the caller's slice and hands it back on every read,
// and each access is counted as one page of PageSize() bytes.
package storage

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/geom"
)

// DefaultPageSize is the disk page size used in the paper's evaluation
// (§VII-A sets 8KB for all approaches).
const DefaultPageSize = 8192

// PageID identifies a page within a Store. Pages are appended sequentially
// starting at zero, so PageID order is physical disk order.
type PageID uint64

// ErrPageOutOfRange is returned when reading a page that was never
// written.
var ErrPageOutOfRange = errors.New("storage: page id out of range")

// ElementSize is the on-page size of one element: a uint64 ID followed by
// six float64 box coordinates. At the default 8KB page size a page holds 146
// elements, matching the order of magnitude of the paper's R-tree fanout of
// 135 for 8KB pages.
const ElementSize = 8 + 6*8

// pageHeaderSize is what a data page on disk spends besides its elements: a
// uint32 element count.
const pageHeaderSize = 4

// ElementsPerPage returns how many elements fit a data page of the given
// size.
func ElementsPerPage(pageSize int) int {
	return (pageSize - pageHeaderSize) / ElementSize
}

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
	// Append writes elems (at most ElementsPerPage(PageSize()) of them; none
	// for a page that only occupies space) as a new page at the end of the
	// store and returns its ID. The store keeps the slice, not a copy: the
	// caller must not modify the elements afterwards.
	Append(elems []geom.Element) (PageID, error)
	// View returns page id as the elements it was written with. The caller
	// must not modify them; they stay valid as long as the store does.
	View(id PageID) ([]geom.Element, error)
	// NumPages returns the number of pages written.
	NumPages() int
	// Stats returns the I/O counters accumulated since the store (or view)
	// was made; a phase is measured as Stats().Sub(before).
	Stats() Stats
	// OpenReader returns a read-only view over the current contents with
	// counters starting at zero; Append on it fails (ErrReadOnly from this
	// package's stores). A view is valid only while the parent is not
	// concurrently appended to; the join phase is read-only, which is
	// exactly the phase the parallel join fans out.
	OpenReader() Store
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

// MemStore is an in-memory Store that simulates a disk: each page is held as
// the element slice it was written from, and all accesses are counted. It is
// the store the benchmark harness uses, paired with a DiskModel for modeled
// I/O time. Its read side — PageSize, View, NumPages, OpenReader and the
// counters — is that of the views it opens (memReader), over its own pages.
type MemStore struct {
	memReader
}

// NewMemStore returns an empty MemStore with the given page size
// (DefaultPageSize if pageSize <= 0).
func NewMemStore(pageSize int) *MemStore {
	if pageSize <= 0 {
		pageSize = DefaultPageSize
	}
	return &MemStore{memReader{pageSize: pageSize}}
}

// Append implements Store.
func (m *MemStore) Append(elems []geom.Element) (PageID, error) {
	if max := ElementsPerPage(m.pageSize); len(elems) > max {
		return 0, fmt.Errorf("storage: %d elements exceed page capacity %d", len(elems), max)
	}
	id := PageID(len(m.pages))
	m.pages = append(m.pages, elems[:len(elems):len(elems)])
	m.trk.noteWrite(id, m.pageSize)
	return id, nil
}

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
