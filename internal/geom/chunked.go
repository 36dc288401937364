package geom

import (
	"fmt"
	"math/bits"
)

// Chunked is one array of elements held in chunks of equal length, a power of
// two, but the last, which may be shorter: element i is element i&(len−1) of
// chunk i>>shift. It is how an upload keeps the elements it decoded without
// moving them into one allocation — the decoder cannot know the count before
// the array ends — and the array an index build reorders in place. A Chunked
// is a view: copies share the elements.
type Chunked struct {
	chunks [][]Element
	shift  uint
	mask   int // 1<<shift - 1
	n      int
}

// ChunkedOf is the Chunked of one slice.
func ChunkedOf(elems []Element) Chunked {
	if len(elems) == 0 {
		return Chunked{}
	}
	shift := uint(bits.Len(uint(len(elems))))
	return Chunked{chunks: [][]Element{elems}, shift: shift, mask: 1<<shift - 1, n: len(elems)}
}

// NewChunked is the Chunked of chunks, each 1<<shift elements long but the
// last, which holds 1 to 1<<shift; it panics on any other shape (a
// programming error).
func NewChunked(chunks [][]Element, shift uint) Chunked {
	c := Chunked{chunks: chunks, shift: shift, mask: 1<<shift - 1}
	for k, ch := range chunks {
		if len(ch) != 1<<shift && (k < len(chunks)-1 || len(ch) == 0 || len(ch) > 1<<shift) {
			panic(fmt.Sprintf("geom: chunk %d of %d holds %d elements, not 1<<%d", k, len(chunks), len(ch), shift))
		}
		c.n += len(ch)
	}
	return c
}

// Len returns how many elements c holds.
func (c Chunked) Len() int { return c.n }

// At returns the place of element i.
func (c Chunked) At(i int) *Element {
	return &c.chunks[i>>c.shift][i&c.mask]
}

// Chunks returns the chunks, in order. They are c's own storage.
func (c Chunked) Chunks() [][]Element { return c.chunks[:len(c.chunks):len(c.chunks)] }

// Runs calls fn for each chunk's share of elements [lo, hi), in order, with
// at the position of run[0].
func (c Chunked) Runs(lo, hi int, fn func(at int, run []Element)) {
	for lo < hi {
		k, off := lo>>c.shift, lo&c.mask
		run := c.chunks[k][off:min(len(c.chunks[k]), off+hi-lo)]
		fn(lo, run)
		lo += len(run)
	}
}

// Slice returns elements [lo, hi): c's own storage when they lie in one
// chunk, a copy when they straddle two or more.
func (c Chunked) Slice(lo, hi int) []Element {
	if lo == hi {
		return nil
	}
	if k := lo >> c.shift; (hi-1)>>c.shift == k {
		off := lo & c.mask
		return c.chunks[k][off : off+hi-lo : off+hi-lo]
	}
	out := make([]Element, 0, hi-lo)
	c.Runs(lo, hi, func(_ int, run []Element) { out = append(out, run...) })
	return out
}

// MBB returns MBBOf elements [lo, hi), bit for bit (see Cover).
func (c Chunked) MBB(lo, hi int) Box {
	mbb := EmptyBox()
	c.Runs(lo, hi, func(_ int, run []Element) { mbb = mbb.Cover(MBBOf(run)) })
	return mbb
}
