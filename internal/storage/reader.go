package storage

import (
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/geom"
)

// ErrReadOnly is returned by writes and allocations on a store reader.
var ErrReadOnly = errors.New("storage: store reader is read-only")

// OpenReaders returns n independent read-only views of st (Store.OpenReader),
// one per concurrent consumer; at least one.
func OpenReaders(st Store, n int) []Store {
	out := make([]Store, max(n, 1))
	for i := range out {
		out[i] = st.OpenReader()
	}
	return out
}

// memReader is a lock-free read-only view of a MemStore, and the read side of
// the MemStore itself. Page contents are shared with the parent (ViewElements
// hands the page slices out, Read copies out of them), so views cost O(1)
// memory each.
type memReader struct {
	pages    []memPage
	pageSize int
	trk      tracker
}

// OpenReader implements Store, for the MemStore and for its views alike.
func (r *memReader) OpenReader() Store {
	return &memReader{pages: r.pages, pageSize: r.pageSize}
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

// fileReader is a read-only view of a FileStore. os.File.ReadAt is safe for
// concurrent use, so reads take no lock; the page count is snapshotted at
// open time.
type fileReader struct {
	f        *os.File
	pageSize int
	numPages int
	trk      tracker
}

// OpenReader implements Store.
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

func (r *fileReader) OpenReader() Store {
	return &fileReader{f: r.f, pageSize: r.pageSize, numPages: r.numPages}
}
