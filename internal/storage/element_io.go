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

// WriteElementPage writes elems as the single data page id: by reference into
// an ElementWriter, which retains the slice (the caller must not modify it
// afterwards), encoded through buf (one page long) into any other store.
func WriteElementPage(st Store, id PageID, elems []geom.Element, buf []byte) error {
	if w, ok := st.(ElementWriter); ok {
		return w.WriteElements(id, elems)
	}
	if err := EncodeElementsPage(buf, elems); err != nil {
		return err
	}
	return st.Write(id, buf)
}

// ReadElementPage reads a single data page, appending its elements to dst.
// The page is taken where the store holds it: copied from the elements it was
// written from over an ElementViewer that kept them, decoded in place over any
// other in-memory store, decoded out of buf (one page long) over the rest.
func ReadElementPage(st Store, id PageID, dst []geom.Element, buf []byte) ([]geom.Element, error) {
	p, err := viewHeld(st, id, buf)
	if err != nil {
		return dst, err
	}
	if p.data == nil {
		return append(dst, p.elems...), nil
	}
	return DecodeElementsPage(dst, p.data)
}
