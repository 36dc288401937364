package storage

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/geom"
)

// ElementSize is the on-page size of one serialized element: a uint64 ID
// followed by six float64 box coordinates. At the default 8KB page size a
// page holds 146 elements, matching the order of magnitude of the paper's
// R-tree fanout of 135 for 8KB pages.
const ElementSize = 8 + 6*8

// pageHeaderSize precedes the elements on every data page: a uint32 count.
const pageHeaderSize = 4

// ElementsPerPage returns how many elements fit a data page of the given
// size.
func ElementsPerPage(pageSize int) int {
	return (pageSize - pageHeaderSize) / ElementSize
}

// EncodeElementsPage serializes up to ElementsPerPage(len(buf)) elements into
// buf, which must be exactly one page. It returns an error when the elements
// do not fit.
func EncodeElementsPage(buf []byte, elems []geom.Element) error {
	if len(elems) > ElementsPerPage(len(buf)) {
		return fmt.Errorf("storage: %d elements exceed page capacity %d", len(elems), ElementsPerPage(len(buf)))
	}
	binary.LittleEndian.PutUint32(buf, uint32(len(elems)))
	off := pageHeaderSize
	for _, e := range elems {
		binary.LittleEndian.PutUint64(buf[off:], e.ID)
		off += 8
		for d := 0; d < geom.Dims; d++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Box.Lo[d]))
			off += 8
		}
		for d := 0; d < geom.Dims; d++ {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(e.Box.Hi[d]))
			off += 8
		}
	}
	// Zero the tail so pages round-trip byte-identically.
	for i := off; i < len(buf); i++ {
		buf[i] = 0
	}
	return nil
}

// DecodeElementsPage deserializes the elements stored in one page, appending
// them to dst and returning the extended slice.
func DecodeElementsPage(dst []geom.Element, buf []byte) ([]geom.Element, error) {
	n := int(binary.LittleEndian.Uint32(buf))
	if n < 0 || n > ElementsPerPage(len(buf)) {
		return dst, fmt.Errorf("storage: corrupt page header count %d", n)
	}
	off := pageHeaderSize
	for i := 0; i < n; i++ {
		var e geom.Element
		e.ID = binary.LittleEndian.Uint64(buf[off:])
		off += 8
		for d := 0; d < geom.Dims; d++ {
			e.Box.Lo[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		for d := 0; d < geom.Dims; d++ {
			e.Box.Hi[d] = math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			off += 8
		}
		dst = append(dst, e)
	}
	return dst, nil
}

// WriteElementRun writes elems to the store as a run of consecutive pages of
// up to perPage elements each (perPage <= ElementsPerPage). It returns the
// first page ID and the number of pages written. perPage <= 0 selects the
// maximum page capacity.
func WriteElementRun(st Store, elems []geom.Element, perPage int) (PageID, int, error) {
	capacity := ElementsPerPage(st.PageSize())
	if perPage <= 0 || perPage > capacity {
		perPage = capacity
	}
	numPages := (len(elems) + perPage - 1) / perPage
	if numPages == 0 {
		numPages = 1 // an empty run still occupies one (empty) page
	}
	first, err := st.Alloc(numPages)
	if err != nil {
		return 0, 0, err
	}
	buf := make([]byte, st.PageSize())
	for p := 0; p < numPages; p++ {
		lo := p * perPage
		hi := lo + perPage
		if lo > len(elems) {
			lo = len(elems)
		}
		if hi > len(elems) {
			hi = len(elems)
		}
		if err := EncodeElementsPage(buf, elems[lo:hi]); err != nil {
			return 0, 0, err
		}
		if err := st.Write(first+PageID(p), buf); err != nil {
			return 0, 0, err
		}
	}
	return first, numPages, nil
}

// ReadElementPage reads and decodes a single data page, appending its
// elements to dst. The page is decoded where ViewPage finds it: in place over
// an in-memory store, out of buf (one page long) over any other.
func ReadElementPage(st Store, id PageID, dst []geom.Element, buf []byte) ([]geom.Element, error) {
	page, err := ViewPage(st, id, buf)
	if err != nil {
		return dst, err
	}
	return DecodeElementsPage(dst, page)
}

// ReadElementRun reads numPages consecutive data pages starting at first.
func ReadElementRun(st Store, first PageID, numPages int) ([]geom.Element, error) {
	buf := make([]byte, st.PageSize())
	var out []geom.Element
	for p := 0; p < numPages; p++ {
		var err error
		out, err = ReadElementPage(st, first+PageID(p), out, buf)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
