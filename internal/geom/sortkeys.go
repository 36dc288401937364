package geom

import (
	"math"
	"math/bits"
	"slices"
)

// SortKey pairs one float64 sort key (in the bit transform of FloatSortable)
// with the position of the element it was taken from, so a sort moves
// 16-byte records instead of 56-byte elements. It is the one sort record of
// the repository's partitioners: the inmem engine's sweep order and the STR
// bulk-load both sort these.
type SortKey struct {
	K uint64
	I int32
}

// FloatSortable maps a float64 to a uint64 whose unsigned order matches the
// float order: negative values flip entirely (more negative -> smaller),
// non-negative values just set the sign bit above every flipped negative.
// -0 and +0 map to different keys; a caller that must treat them as equal
// normalizes before calling.
func FloatSortable(f float64) uint64 {
	u := math.Float64bits(f)
	if u&(1<<63) != 0 {
		return ^u
	}
	return u | 1<<63
}

// RadixMinLen is the input size where the radix sort's fixed costs (a
// counting pass and up to four prefix sums over 256 counters) start beating
// the comparison sort.
const RadixMinLen = 256

// radixBytes is how many key bytes one radix sort orders: the most
// significant ones that vary. Keys that tie on all of them are rare on
// coordinates, and sorted again on the bytes below.
const radixBytes = 4

// KeySorter sorts SortKey records and keeps its scratch (the radix ping-pong
// buffer) between calls, so a caller sorting many slices pays for it once.
// The zero value is ready to use; a KeySorter must not be used from two
// goroutines at once.
type KeySorter struct {
	buf []SortKey
}

// Sort orders keys ascending by K. The keys must arrive in ascending I (as
// one pass over the elements builds them); records with equal K then leave
// in ascending I on every path — the radix passes are stable and the
// comparison sort orders by (K, I) — so the result is a deterministic
// function of the input. Small inputs use the comparison sort, whose
// constant factor wins there. Large ones sort by LSD radix passes over the
// radixBytes most significant key bytes that vary (no comparator calls,
// linear time); the runs of keys that tie on those bytes leave the passes in
// ascending I, and are then sorted on the bytes below.
func (s *KeySorter) Sort(keys []SortKey) {
	if len(keys) < RadixMinLen {
		slices.SortFunc(keys, func(x, y SortKey) int {
			switch {
			case x.K < y.K:
				return -1
			case x.K > y.K:
				return 1
			}
			return int(x.I - y.I)
		})
		return
	}
	if cap(s.buf) < len(keys) {
		s.buf = make([]SortKey, len(keys))
	}
	low := radix(keys, s.buf[:len(keys)])
	if low == 0 {
		return
	}
	for lo := 0; lo < len(keys); {
		hi, high := lo+1, keys[lo].K>>low
		for hi < len(keys) && keys[hi].K>>low == high {
			hi++
		}
		if hi-lo > 1 {
			s.Sort(keys[lo:hi])
		}
		lo = hi
	}
}

// digitCounts holds a histogram of each of a key's 8 bytes, least
// significant first.
type digitCounts [8][256]uint32

// add counts every byte of every key in one read pass.
func (c *digitCounts) add(keys []SortKey) {
	for _, sk := range keys {
		k := sk.K
		c[0][uint8(k)]++
		c[1][uint8(k>>8)]++
		c[2][uint8(k>>16)]++
		c[3][uint8(k>>24)]++
		c[4][uint8(k>>32)]++
		c[5][uint8(k>>40)]++
		c[6][uint8(k>>48)]++
		c[7][uint8(k>>56)]++
	}
}

// passes returns the bytes a radix sort of the n keys c counts makes passes
// over, as a mask: the radixBytes most significant ones where the keys
// differ from k, one of them. low is the shift of the lowest of them, or 0
// when fewer vary: keys equal in K>>low are the ones the passes leave tied.
func (c *digitCounts) passes(k uint64, n int) (mask uint8, low uint) {
	for b := 7; b >= 0; b-- {
		if c[b][uint8(k>>(8*b))] == uint32(n) {
			continue
		}
		if mask |= 1 << b; bits.OnesCount8(mask) == radixBytes {
			return mask, 8 * uint(b)
		}
	}
	return mask, 0
}

// radix makes Sort's passes, ping-ponging between keys and buf (of the same
// length), and returns low as passes gives it. One read pass counts all 8
// bytes, so the pass over a byte is a prefix sum and a scatter that moves
// each record to the next free position its byte's counter names (records
// sharing a byte keep their order). It copies back if the passes end on
// buf's side.
func radix(keys, buf []SortKey) (low uint) {
	var c digitCounts
	c.add(keys)
	mask, low := c.passes(keys[0].K, len(keys))
	src, dst := keys, buf
	for pass := range c {
		if mask&(1<<pass) == 0 {
			continue
		}
		next := &c[pass]
		var at uint32
		for d, n := range next {
			next[d] = at
			at += n
		}
		shift := uint(8 * pass)
		for _, sk := range src {
			d := uint8(sk.K >> shift)
			dst[next[d]] = sk
			next[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
	return low
}
