package server

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/transformers"
)

// encodedSize is the bytes pairRuns takes for pairs, worked out pair by pair
// apart from its own bookkeeping.
func encodedSize(pairs []transformers.Pair) int {
	var last transformers.Pair
	var buf [binary.MaxVarintLen64]byte
	n := 0
	for _, p := range pairs {
		n += binary.PutUvarint(buf[:], zigzag(p.A-last.A)) + binary.PutUvarint(buf[:], zigzag(p.B-last.B))
		last = p
	}
	return n
}

// roundTrip adds pairs to a fresh pairRuns and fails unless each yields them
// back, in order, and the chunks are as many as their bytes need, every one but
// the last filled to within a pair.
func roundTrip(t *testing.T, pairs []transformers.Pair) *pairRuns {
	t.Helper()
	r := &pairRuns{}
	for _, p := range pairs {
		r.add(p)
	}
	if r.n != len(pairs) {
		t.Fatalf("holds %d pairs, added %d", r.n, len(pairs))
	}
	i := 0
	if err := r.each(func(p transformers.Pair) error {
		if i >= len(pairs) || p != pairs[i] {
			t.Fatalf("pair %d decodes to %+v, added %+v", i, p, pairs[min(i, len(pairs)-1)])
		}
		i++
		return nil
	}); err != nil || i != len(pairs) {
		t.Fatalf("each yielded %d of %d pairs, err %v", i, len(pairs), err)
	}
	if c, size := len(r.chunks), encodedSize(pairs); c > 0 && (size > c*pairChunkBytes || size <= (c-1)*(pairChunkBytes-maxPairBytes)) || (c == 0) != (len(pairs) == 0) {
		t.Fatalf("%d pairs in %d bytes take %d chunks", len(pairs), size, c)
	}
	return r
}

// TestPairRunsRoundTrip: IDs at 0, 2^32 and 2^64-1, IDs that fall, repeat or
// jump either way, and runs long enough to fill several chunks — with every
// difference 2^63, the widest (ten bytes), and with a mix — every pair read
// back as added; the join order the codec is sized for takes a few bytes a
// pair; and each stops at its yield's error.
func TestPairRunsRoundTrip(t *testing.T) {
	const top = math.MaxUint64
	edges := []transformers.Pair{
		{A: 0, B: 0}, {A: 1 << 32, B: top}, {A: top, B: 0}, {A: 0, B: top}, {A: top, B: top},
		{A: top, B: top}, {A: 1 << 32, B: 1 << 32}, {A: 5, B: 3}, {A: 4, B: 2}, {A: 3, B: 2}, {A: 3, B: 2},
		{A: 1<<32 - 1, B: 1<<32 + 1}, {A: 0, B: 0},
	}
	roundTrip(t, edges).release()

	// Differences of 2^63: every pair takes maxPairBytes, so each chunk ends
	// at the last whole pair that fits.
	var wide []transformers.Pair
	for i := 1; len(wide)*maxPairBytes < 3*pairChunkBytes; i++ {
		wide = append(wide, transformers.Pair{A: uint64(i%2) << 63, B: uint64(i%2) << 63})
	}
	if r := roundTrip(t, wide); encodedSize(wide) != len(wide)*maxPairBytes || len(r.chunks) < 3 {
		t.Fatalf("%d ten-byte differences took %d bytes in %d chunks", 2*len(wide), encodedSize(wide), len(r.chunks))
	} else {
		r.release()
	}

	// A random mix of short and wide differences over several chunks.
	rng := rand.New(rand.NewSource(5))
	var mixed []transformers.Pair
	for len(mixed) < 60_000 {
		p := transformers.Pair{A: rng.Uint64(), B: rng.Uint64()}
		for k := rng.Intn(20); k > 0; k-- {
			mixed = append(mixed, p)
			p.A += uint64(rng.Intn(300)) - 150
			p.B += uint64(rng.Intn(3))
		}
	}
	r := roundTrip(t, mixed)
	if len(r.chunks) < 3 {
		t.Fatalf("%d mixed pairs fit %d chunks: no boundary crossed", len(mixed), len(r.chunks))
	}
	stop := errors.New("stop")
	seen := 0
	if err := r.each(func(transformers.Pair) error {
		if seen++; seen == 40_000 {
			return stop
		}
		return nil
	}); err != stop || seen != 40_000 {
		t.Fatalf("each went on for %d pairs after its yield failed at 40000 (err %v)", seen, err)
	}
	r.release()
	if r.n != 0 || r.used != 0 || len(r.chunks) != 0 {
		t.Fatalf("release left %d pairs in %d chunks", r.n, len(r.chunks))
	}

	// A join's order: A ascends in runs, B wanders near the previous B.
	var joined []transformers.Pair
	for a := uint64(0); a < 20_000; a++ {
		for k := uint64(0); k < a%5; k++ {
			joined = append(joined, transformers.Pair{A: a, B: 100_000 + a + 7*k})
		}
	}
	r = roundTrip(t, joined)
	if per := float64(encodedSize(joined)) / float64(len(joined)); per > 6 {
		t.Fatalf("a join-ordered answer takes %.2f B a pair", per)
	}
	r.release()
}

// FuzzPairRuns: any sequence of pairs round-trips. The input is read as
// little-endian (A, B) words; it is added over and over until it crosses a
// chunk boundary.
func FuzzPairRuns(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<32), math.MaxUint64))
	f.Add([]byte("0123456789abcdef fedcba9876543210"))
	f.Fuzz(func(t *testing.T, data []byte) {
		var pairs []transformers.Pair
		for len(data) >= 16 {
			pairs = append(pairs, transformers.Pair{A: binary.LittleEndian.Uint64(data), B: binary.LittleEndian.Uint64(data[8:])})
			data = data[16:]
		}
		if len(pairs) > 0 {
			for len(pairs) < pairChunkBytes/2 {
				pairs = append(pairs, pairs...)
			}
		}
		roundTrip(t, pairs).release()
	})
}
