package server

import (
	"encoding/binary"
	"sync"

	"repro/transformers"
)

// pairChunk is the unit a buffered answer is held in: 64 KB of pairRuns
// encoding. An answer is a list of them, so it never regrows — what it
// allocates is its encoded size rounded up to a chunk — and released chunks
// serve the next answer instead of the collector. The pool holds no chunk past
// two collections of an idle daemon.
type pairChunk [pairChunkBytes]byte

const pairChunkBytes = 64 << 10

var pairChunks = sync.Pool{New: func() any { return new(pairChunk) }}

// maxPairBytes is the longest encoding of one pair: two ten-byte uvarints.
const maxPairBytes = 2 * binary.MaxVarintLen64

// pairRuns holds pairs in the order they were added, each as two uvarints:
// the zigzag-encoded differences of its A and of its B from the previous
// pair's (from 0 for the first). A join emits neighbours near each other, so
// a pair takes 2–3 bytes where a Pair takes 16 (2.26 on the axons 32K ×
// dendrites 24K join at distance 25); the differences wrap, so every uint64
// round-trips, in at most maxPairBytes. No pair straddles two chunks: a
// chunk is begun when the last has fewer than maxPairBytes left, and each
// replays the same rule to find where one ends.
type pairRuns struct {
	chunks []*pairChunk
	used   int // bytes written to the last chunk
	n      int // pairs held
	last   transformers.Pair
}

// zigzag maps a wrapped difference to a uvarint that is short when the
// difference is small either way: 0, -1, 1, -2, … become 0, 1, 2, 3, ….
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// add appends one pair.
func (r *pairRuns) add(p transformers.Pair) {
	if len(r.chunks) == 0 || r.used > pairChunkBytes-maxPairBytes {
		r.chunks = append(r.chunks, pairChunks.Get().(*pairChunk))
		r.used = 0
	}
	ch := r.chunks[len(r.chunks)-1]
	k := binary.PutUvarint(ch[r.used:], zigzag(p.A-r.last.A))
	k += binary.PutUvarint(ch[r.used+k:], zigzag(p.B-r.last.B))
	r.used += k
	r.n++
	r.last = p
}

// each calls yield with every pair in the order added, stopping at the first
// error, which it returns.
func (r *pairRuns) each(yield func(transformers.Pair) error) error {
	var p transformers.Pair
	ci, pos := 0, 0
	for i := 0; i < r.n; i++ {
		if pos > pairChunkBytes-maxPairBytes {
			ci, pos = ci+1, 0
		}
		ch := r.chunks[ci]
		da, k := binary.Uvarint(ch[pos:])
		pos += k
		db, k := binary.Uvarint(ch[pos:])
		pos += k
		p.A += unzigzag(da)
		p.B += unzigzag(db)
		if err := yield(p); err != nil {
			return err
		}
	}
	return nil
}

// release gives the chunks back and empties r.
func (r *pairRuns) release() {
	for _, ch := range r.chunks {
		pairChunks.Put(ch)
	}
	*r = pairRuns{}
}
