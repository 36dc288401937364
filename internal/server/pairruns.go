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
//
// A collector's runs are pooled chunks it gives back. A cache entry's are
// sealed: read-only, the last chunk cut to its used length, and never given
// back — a replay may still be reading them after their entry is dropped or
// evicted, so the GC frees them.
type pairRuns struct {
	chunks [][]byte
	used   int // bytes written to the last chunk
	n      int // pairs held
	last   transformers.Pair
	sealed bool
}

// zigzag maps a wrapped difference to a uvarint that is short when the
// difference is small either way: 0, -1, 1, -2, … become 0, 1, 2, 3, ….
func zigzag(d uint64) uint64 { return d<<1 ^ uint64(int64(d)>>63) }

func unzigzag(u uint64) uint64 { return u>>1 ^ -(u & 1) }

// add appends one pair.
func (r *pairRuns) add(p transformers.Pair) {
	if len(r.chunks) == 0 || r.used > pairChunkBytes-maxPairBytes {
		r.chunks = append(r.chunks, pairChunks.Get().(*pairChunk)[:])
		r.used = 0
	}
	ch := r.chunks[len(r.chunks)-1]
	k := binary.PutUvarint(ch[r.used:], zigzag(p.A-r.last.A))
	k += binary.PutUvarint(ch[r.used+k:], zigzag(p.B-r.last.B))
	r.used += k
	r.n++
	r.last = p
}

// pairReader decodes a pairRuns from its first pair; its caller stops after
// the runs' n pairs.
type pairReader struct {
	chunks  [][]byte
	ci, pos int
	p       transformers.Pair
}

func (r *pairRuns) reader() pairReader { return pairReader{chunks: r.chunks} }

// next decodes the next pair. A one-byte uvarint — a difference within ±63,
// most of a join's — is read without a call.
func (d *pairReader) next() transformers.Pair {
	if d.pos > pairChunkBytes-maxPairBytes {
		d.ci, d.pos = d.ci+1, 0
	}
	ch, pos := d.chunks[d.ci], d.pos
	var da, db uint64
	if b := ch[pos]; b < 0x80 {
		da, pos = uint64(b), pos+1
	} else {
		da, pos = uvarintAt(ch, pos)
	}
	if b := ch[pos]; b < 0x80 {
		db, pos = uint64(b), pos+1
	} else {
		db, pos = uvarintAt(ch, pos)
	}
	d.pos = pos
	d.p.A += unzigzag(da)
	d.p.B += unzigzag(db)
	return d.p
}

// uvarintAt reads the uvarint at ch[pos:] and answers it with the position
// after it.
func uvarintAt(ch []byte, pos int) (uint64, int) {
	v, k := binary.Uvarint(ch[pos:])
	return v, pos + k
}

// each calls yield with every pair in the order added, stopping at the first
// error, which it returns.
func (r *pairRuns) each(yield func(transformers.Pair) error) error {
	d := r.reader()
	for i := 0; i < r.n; i++ {
		if err := yield(d.next()); err != nil {
			return err
		}
	}
	return nil
}

// bytes is the memory the chunks take.
func (r *pairRuns) bytes() int {
	n := 0
	for _, ch := range r.chunks {
		n += len(ch)
	}
	return n
}

// seal returns the pairs as a cache entry holds them and empties r: the last
// chunk is copied to its used length and given back, the others move.
func (r *pairRuns) seal() pairRuns {
	s := *r
	*r = pairRuns{}
	if k := len(s.chunks); k > 0 {
		tail := s.chunks[k-1]
		s.chunks[k-1] = append([]byte(nil), tail[:s.used]...)
		pairChunks.Put((*pairChunk)(tail))
	}
	s.sealed = true
	return s
}

// release gives the chunks back, unless they are sealed, and empties r.
func (r *pairRuns) release() {
	if !r.sealed {
		for _, ch := range r.chunks {
			pairChunks.Put((*pairChunk)(ch))
		}
	}
	*r = pairRuns{}
}
