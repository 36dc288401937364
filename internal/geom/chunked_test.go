package geom

import (
	"math"
	"slices"
	"testing"
	"unsafe"
)

// TestChunked: element i of chunks of 1<<shift is At(i); Slice shares a
// range within one chunk and copies one across two; MBB is MBBOf the range,
// -0 bounds included; and NewChunked refuses any other shape.
func TestChunked(t *testing.T) {
	elems := make([]Element, 21)
	for i := range elems {
		x := float64(i)
		if i == 9 {
			x = math.Copysign(0, -1)
		}
		elems[i] = Element{ID: uint64(i), Box: Box{Lo: Point{x, -x, 1}, Hi: Point{x + 1, 2, 3}}}
	}
	var chunks [][]Element
	for rest := elems; len(rest) > 0; rest = rest[min(8, len(rest)):] {
		chunks = append(chunks, rest[:min(8, len(rest))])
	}
	c := NewChunked(chunks, 3)
	if c.Len() != len(elems) || len(c.Chunks()) != 3 {
		t.Fatalf("%d elements in %d chunks, want 21 in 3", c.Len(), len(c.Chunks()))
	}
	for i := range elems {
		if c.At(i) != &elems[i] {
			t.Fatalf("At(%d) is not element %d", i, i)
		}
	}
	for _, r := range [][2]int{{0, 8}, {3, 5}, {16, 21}, {6, 10}, {7, 17}, {0, 21}, {4, 4}} {
		lo, hi := r[0], r[1]
		got := c.Slice(lo, hi)
		if !slices.Equal(got, elems[lo:hi]) {
			t.Fatalf("Slice(%d, %d) = %v", lo, hi, got)
		}
		shared := hi > lo && unsafe.SliceData(got) == &elems[lo]
		if within := hi > lo && lo/8 == (hi-1)/8; shared != within {
			t.Fatalf("Slice(%d, %d) shares the chunk: %v, want %v", lo, hi, shared, within)
		}
		if m, want := c.MBB(lo, hi), MBBOf(elems[lo:hi]); math.Float64bits(m.Lo[0]) != math.Float64bits(want.Lo[0]) || m != want {
			t.Fatalf("MBB(%d, %d) = %v, want %v", lo, hi, m, want)
		}
	}
	if one := ChunkedOf(elems); one.Len() != 21 || one.At(20) != &elems[20] {
		t.Fatal("ChunkedOf does not hold the slice")
	}
	for _, bad := range [][][]Element{{elems[:8], elems[8:12], elems[12:20]}, {elems[:8], elems[8:17]}, {elems[:8], elems[8:8]}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewChunked took chunks of %d elements", len(bad[1]))
				}
			}()
			NewChunked(bad, 3)
		}()
	}
}
