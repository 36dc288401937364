package storage

import (
	"errors"
	"fmt"

	"repro/internal/geom"
)

// ErrReadOnly is returned by Append on a store reader.
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
// the MemStore itself. Pages are shared with the parent (View hands the page
// slices out), so views cost O(1) memory each.
type memReader struct {
	pages    [][]geom.Element
	pageSize int
	trk      tracker
}

// OpenReader implements Store, for the MemStore and for its views alike.
func (r *memReader) OpenReader() Store {
	return &memReader{pages: r.pages, pageSize: r.pageSize}
}

func (r *memReader) PageSize() int { return r.pageSize }

func (r *memReader) Append([]geom.Element) (PageID, error) { return 0, ErrReadOnly }

// View implements Store: the page as it is held, counted as one read of a
// page's bytes.
func (r *memReader) View(id PageID) ([]geom.Element, error) {
	if int(id) >= len(r.pages) {
		return nil, fmt.Errorf("%w: read page %d of %d", ErrPageOutOfRange, id, len(r.pages))
	}
	r.trk.noteRead(id, r.pageSize)
	return r.pages[id], nil
}

func (r *memReader) NumPages() int { return len(r.pages) }

func (r *memReader) Stats() Stats { return r.trk.stats }
