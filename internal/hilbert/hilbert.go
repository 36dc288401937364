// Package hilbert implements the three-dimensional Hilbert space-filling
// curve. TRANSFORMERS indexes the Hilbert value of the center point of every
// space node with a B+-tree so the adaptive walk can find a start descriptor
// close to any pivot (paper §V, "Adaptive Walk"); the same ordering is used
// to lay out pages sequentially on disk and to give GIPSY a locality-
// preserving guide order.
//
// The implementation is Skilling's transpose algorithm ("Programming the
// Hilbert curve", AIP Conf. Proc. 707, 2004), which converts between
// per-dimension coordinates and the Hilbert index with a handful of bit
// operations per level, for an arbitrary curve order.
package hilbert

import (
	"fmt"

	"repro/internal/geom"
)

// MaxOrder is the largest curve order supported for 3 dimensions: 3*21 = 63
// index bits still fit a uint64.
const MaxOrder = 21

// DefaultOrder gives 16 bits of resolution per dimension (48-bit keys) which
// is far finer than any partitioning this repository produces.
const DefaultOrder = 16

// Encode maps integer coordinates (each < 2^order) to their Hilbert index.
// It panics if order is out of range or a coordinate overflows the order, as
// those are programming errors, not data errors.
func Encode(order int, x, y, z uint32) uint64 {
	checkOrder(order)
	limit := uint32(1) << uint(order)
	if x >= limit || y >= limit || z >= limit {
		panic(fmt.Sprintf("hilbert: coordinate (%d,%d,%d) exceeds order %d", x, y, z, order))
	}
	X := [3]uint32{x, y, z}
	axesToTranspose(&X, order)
	return interleave(X, order)
}

// Decode maps a Hilbert index back to its integer coordinates. It is the
// exact inverse of Encode for the same order.
func Decode(order int, h uint64) (x, y, z uint32) {
	checkOrder(order)
	X := deinterleave(h, order)
	transposeToAxes(&X, order)
	return X[0], X[1], X[2]
}

func checkOrder(order int) {
	if order < 1 || order > MaxOrder {
		panic(fmt.Sprintf("hilbert: order %d out of range [1,%d]", order, MaxOrder))
	}
}

// axesToTranspose converts coordinates into the "transpose" form of the
// Hilbert index, following Skilling's algorithm.
func axesToTranspose(X *[3]uint32, order int) {
	M := uint32(1) << uint(order-1)
	// Inverse undo excess work.
	for Q := M; Q > 1; Q >>= 1 {
		P := Q - 1
		for i := 0; i < 3; i++ {
			if X[i]&Q != 0 {
				X[0] ^= P // invert
			} else {
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
	// Gray encode.
	for i := 1; i < 3; i++ {
		X[i] ^= X[i-1]
	}
	var t uint32
	for Q := M; Q > 1; Q >>= 1 {
		if X[2]&Q != 0 {
			t ^= Q - 1
		}
	}
	for i := 0; i < 3; i++ {
		X[i] ^= t
	}
}

// transposeToAxes is the inverse of axesToTranspose.
func transposeToAxes(X *[3]uint32, order int) {
	N := uint32(2) << uint(order-1)
	// Gray decode by H ^ (H/2).
	t := X[2] >> 1
	for i := 2; i > 0; i-- {
		X[i] ^= X[i-1]
	}
	X[0] ^= t
	// Undo excess work.
	for Q := uint32(2); Q != N; Q <<= 1 {
		P := Q - 1
		for i := 2; i >= 0; i-- {
			if X[i]&Q != 0 {
				X[0] ^= P
			} else {
				t := (X[0] ^ X[i]) & P
				X[0] ^= t
				X[i] ^= t
			}
		}
	}
}

// interleave packs the transpose form into a single index: bit (order-1) of
// X[0] is the most significant index bit, followed by bit (order-1) of X[1],
// X[2], then bit (order-2) of X[0], and so on.
func interleave(X [3]uint32, order int) uint64 {
	var h uint64
	for bit := order - 1; bit >= 0; bit-- {
		for i := 0; i < 3; i++ {
			h = h<<1 | uint64(X[i]>>uint(bit)&1)
		}
	}
	return h
}

// deinterleave is the inverse of interleave.
func deinterleave(h uint64, order int) [3]uint32 {
	var X [3]uint32
	shift := uint(3*order - 1)
	for bit := order - 1; bit >= 0; bit-- {
		for i := 0; i < 3; i++ {
			X[i] |= uint32(h>>shift&1) << uint(bit)
			shift--
		}
	}
	return X
}

// Mapper quantizes points of a world box onto the integer grid of a Hilbert
// curve and returns their curve index. Points outside the world are clamped
// to its boundary, so a Mapper never panics on slightly protruding data.
type Mapper struct {
	world geom.Box
	order int
	scale [3]float64
}

// NewMapper builds a Mapper over the given world box. A degenerate world
// extent in some dimension maps every coordinate of that dimension to zero.
func NewMapper(world geom.Box, order int) *Mapper {
	checkOrder(order)
	m := &Mapper{world: world, order: order}
	cells := float64(uint64(1) << uint(order))
	for d := 0; d < geom.Dims; d++ {
		side := world.Side(d)
		if side > 0 {
			m.scale[d] = cells / side
		}
	}
	return m
}

// World returns the world box of the mapper.
func (m *Mapper) World() geom.Box { return m.world }

// Cell returns the integer grid coordinates of p, clamped into range.
func (m *Mapper) Cell(p geom.Point) (x, y, z uint32) {
	var c [3]uint32
	limit := uint64(1)<<uint(m.order) - 1
	for d := 0; d < geom.Dims; d++ {
		v := (p[d] - m.world.Lo[d]) * m.scale[d]
		switch {
		case v <= 0 || v != v: // also catches NaN
			c[d] = 0
		case uint64(v) >= limit:
			c[d] = uint32(limit)
		default:
			c[d] = uint32(v)
		}
	}
	return c[0], c[1], c[2]
}

// Value returns the Hilbert index of the grid cell containing p.
func (m *Mapper) Value(p geom.Point) uint64 {
	x, y, z := m.Cell(p)
	return Encode(m.order, x, y, z)
}
