// Package geom provides the three-dimensional geometric primitives used by
// every join algorithm in this repository: points, axis-aligned boxes
// (minimum bounding boxes, MBBs) and spatial elements.
//
// All spatial data in the TRANSFORMERS paper is approximated by 3D MBBs
// during the filtering step of the join; this package implements exactly the
// predicates that step needs (intersection, touch-inclusive intersection,
// box distance, volume) with no external dependencies.
package geom

import (
	"fmt"
	"math"
	"strconv"
)

// Dims is the dimensionality of the space. The paper evaluates on
// three-dimensional scientific data; the whole repository is written for 3D.
const Dims = 3

// Point is a location in 3D space.
type Point [Dims]float64

// Add returns the component-wise sum p + q.
func (p Point) Add(q Point) Point {
	return Point{p[0] + q[0], p[1] + q[1], p[2] + q[2]}
}

// Sub returns the component-wise difference p - q.
func (p Point) Sub(q Point) Point {
	return Point{p[0] - q[0], p[1] - q[1], p[2] - q[2]}
}

// Scale returns p scaled by s in every dimension.
func (p Point) Scale(s float64) Point {
	return Point{p[0] * s, p[1] * s, p[2] * s}
}

// Box is an axis-aligned three-dimensional box, the MBB approximation used
// throughout the filtering step of a spatial join. A Box is valid when
// Lo[d] <= Hi[d] for every dimension d.
type Box struct {
	Lo, Hi Point
}

// NewBox returns the box spanning the two corner points, normalizing the
// corners so that Lo <= Hi holds in every dimension.
func NewBox(a, b Point) Box {
	var box Box
	for d := 0; d < Dims; d++ {
		box.Lo[d] = math.Min(a[d], b[d])
		box.Hi[d] = math.Max(a[d], b[d])
	}
	return box
}

// BoxAround returns the box centered at c with the given half-extents.
func BoxAround(c Point, half Point) Box {
	return Box{Lo: c.Sub(half), Hi: c.Add(half)}
}

// Valid reports whether b.Lo <= b.Hi in every dimension.
func (b Box) Valid() bool {
	for d := 0; d < Dims; d++ {
		if b.Lo[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// Center returns the center point of the box.
func (b Box) Center() Point {
	var c Point
	for d := 0; d < Dims; d++ {
		c[d] = (b.Lo[d] + b.Hi[d]) / 2
	}
	return c
}

// Side returns the extent of the box in dimension d.
func (b Box) Side(d int) float64 {
	return b.Hi[d] - b.Lo[d]
}

// Volume returns the volume enclosed by the box. Degenerate boxes (zero
// extent in some dimension) have volume zero.
func (b Box) Volume() float64 {
	v := 1.0
	for d := 0; d < Dims; d++ {
		v *= b.Hi[d] - b.Lo[d]
	}
	return v
}

// Intersects reports whether b and o overlap with strictly positive overlap
// or share boundary. Boxes that merely touch (share a face, edge or corner)
// are reported as intersecting: the filtering step of a spatial join must
// not miss candidate pairs whose MBBs abut.
func (b Box) Intersects(o Box) bool {
	for d := 0; d < Dims; d++ {
		if b.Lo[d] > o.Hi[d] || o.Lo[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// IntersectsStrict reports whether b and o overlap with positive measure in
// every dimension (touching does not count).
func (b Box) IntersectsStrict(o Box) bool {
	for d := 0; d < Dims; d++ {
		if b.Lo[d] >= o.Hi[d] || o.Lo[d] >= b.Hi[d] {
			return false
		}
	}
	return true
}

// Contains reports whether b fully contains o.
func (b Box) Contains(o Box) bool {
	for d := 0; d < Dims; d++ {
		if o.Lo[d] < b.Lo[d] || o.Hi[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// ContainsPoint reports whether the point p lies inside b (boundary counts).
func (b Box) ContainsPoint(p Point) bool {
	for d := 0; d < Dims; d++ {
		if p[d] < b.Lo[d] || p[d] > b.Hi[d] {
			return false
		}
	}
	return true
}

// Intersection returns the overlap box of b and o. The second return value
// is false when the boxes do not intersect (the returned box is then
// meaningless).
func (b Box) Intersection(o Box) (Box, bool) {
	var r Box
	for d := 0; d < Dims; d++ {
		r.Lo[d] = math.Max(b.Lo[d], o.Lo[d])
		r.Hi[d] = math.Min(b.Hi[d], o.Hi[d])
		if r.Lo[d] > r.Hi[d] {
			return Box{}, false
		}
	}
	return r, true
}

// Union returns the smallest box containing both b and o.
func (b Box) Union(o Box) Box {
	var r Box
	for d := 0; d < Dims; d++ {
		r.Lo[d] = math.Min(b.Lo[d], o.Lo[d])
		r.Hi[d] = math.Max(b.Hi[d], o.Hi[d])
	}
	return r
}

// Expand returns b grown by eps on every side. Negative eps shrinks the box
// (the result may become invalid).
func (b Box) Expand(eps float64) Box {
	var r Box
	for d := 0; d < Dims; d++ {
		r.Lo[d] = b.Lo[d] - eps
		r.Hi[d] = b.Hi[d] + eps
	}
	return r
}

// DistSq returns the squared minimum distance between b and o; zero when the
// boxes intersect or touch. This is the distance measure Algorithm 1 of the
// paper uses to steer the adaptive walk towards the pivot.
func (b Box) DistSq(o Box) float64 {
	var s float64
	for d := 0; d < Dims; d++ {
		var gap float64
		switch {
		case o.Lo[d] > b.Hi[d]:
			gap = o.Lo[d] - b.Hi[d]
		case b.Lo[d] > o.Hi[d]:
			gap = b.Lo[d] - o.Hi[d]
		}
		s += gap * gap
	}
	return s
}

// String implements fmt.Stringer for diagnostics.
func (b Box) String() string {
	return fmt.Sprintf("[%.3g,%.3g,%.3g]-[%.3g,%.3g,%.3g]",
		b.Lo[0], b.Lo[1], b.Lo[2], b.Hi[0], b.Hi[1], b.Hi[2])
}

// EmptyBox returns the identity element for Union: a box that any real box
// will replace entirely on the first Union call.
func EmptyBox() Box {
	return Box{
		Lo: Point{math.Inf(1), math.Inf(1), math.Inf(1)},
		Hi: Point{math.Inf(-1), math.Inf(-1), math.Inf(-1)},
	}
}

// Element is a spatial element: an application object approximated by its
// MBB during the filtering step, carrying the identifier the refinement step
// would use to fetch the exact geometry.
type Element struct {
	ID  uint64
	Box Box
}

// MBBOf returns the tight bounding box of a set of elements, or EmptyBox()
// for an empty slice. It takes each bound by comparison where Union goes
// through math.Min/Max — index builds and the planner's Analyze spend a
// quarter to a half of their time here — and that is the same box: Min/Max
// differ from < and > only on NaN, which no dataset carries (the upload
// format is JSON numbers, which have no literal for it, and the generators
// produce finite coordinates), and in which of -0 and +0 they keep, which
// compare equal.
func MBBOf(elems []Element) Box {
	mbb := EmptyBox()
	for i := range elems {
		b := &elems[i].Box
		for d := 0; d < Dims; d++ {
			if b.Lo[d] < mbb.Lo[d] {
				mbb.Lo[d] = b.Lo[d]
			}
			if b.Hi[d] > mbb.Hi[d] {
				mbb.Hi[d] = b.Hi[d]
			}
		}
	}
	return mbb
}

// ExpandForDistance grows every box of elems by d/2 per side, in place: the
// §VIII enlarged-objects reduction, under which a spatial join of two sets
// grown this way reports exactly the pairs whose original boxes lie within
// Chebyshev distance d of each other.
func ExpandForDistance(elems []Element, d float64) {
	for i := range elems {
		elems[i].Box = elems[i].Box.Expand(d / 2)
	}
}

// ExpandedForDistance is ExpandForDistance into a copy; elems keeps its boxes.
func ExpandedForDistance(elems []Element, d float64) []Element {
	out := make([]Element, len(elems))
	for i, e := range elems {
		out[i] = Element{ID: e.ID, Box: e.Box.Expand(d / 2)}
	}
	return out
}

// Pair is one result of the filtering step: the IDs of two elements, one
// from each joined dataset, whose MBBs intersect. A is always the element
// from the first dataset passed to the join, B from the second, regardless
// of any internal role switching an algorithm performs. {"a":…,"b":…} is the
// pair wire format of the daemon's responses and the CLI's NDJSON output:
// AppendJSON writes it, the JSON tags let clients decode it.
type Pair struct {
	A uint64 `json:"a"`
	B uint64 `json:"b"`
}

// PairJSONMax is the longest AppendJSON output: two 20-digit IDs.
const PairJSONMax = len(`{"a":,"b":}`) + 2*20

// AppendJSON appends the pair's wire form to dst — byte for byte what
// encoding/json makes of a Pair, without its reflection or its buffer — and
// returns the extended slice. It allocates nothing when dst has PairJSONMax
// bytes to spare.
func (p Pair) AppendJSON(dst []byte) []byte {
	dst = append(dst, `{"a":`...)
	dst = strconv.AppendUint(dst, p.A, 10)
	dst = append(dst, `,"b":`...)
	dst = strconv.AppendUint(dst, p.B, 10)
	return append(dst, '}')
}
