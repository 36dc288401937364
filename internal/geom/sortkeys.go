package geom

import (
	"math"
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

// RadixMinLen is the input size where the radix sort's fixed costs (4
// histogram+scatter passes over 64K counters) start beating the comparison
// sort.
const RadixMinLen = 2048

// KeySorter sorts SortKey records and keeps its scratch (the radix ping-pong
// buffer and the digit histogram) between calls, so a caller sorting many
// slices pays for them once. The zero value is ready to use; a KeySorter
// must not be used from two goroutines at once.
type KeySorter struct {
	buf    []SortKey
	counts []uint32
}

// Sort orders keys ascending by K. The keys must arrive in ascending I (as
// one pass over the elements builds them); records with equal K then leave
// in ascending I on both paths — the radix passes are stable and the
// comparison sort orders by (K, I) — so the result is a deterministic
// function of the input. Large inputs sort by LSD radix passes over the key
// bits (no comparator calls, linear time); small ones use the comparison
// sort whose constant factor wins there.
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
	s.radix(keys)
}

// radix sorts keys by K with 4 LSD passes of 16 bits. Passes where every key
// shares one digit are skipped, so keys spanning a narrow range (one
// dataset's world extent, typically) pay only the passes that discriminate.
// The pass loop ping-pongs between keys and the scratch buffer and copies
// back if it ends on the scratch side.
func (s *KeySorter) radix(keys []SortKey) {
	if cap(s.buf) < len(keys) {
		s.buf = make([]SortKey, len(keys))
	}
	if s.counts == nil {
		s.counts = make([]uint32, 1<<16)
	}
	counts := s.counts
	src, dst := keys, s.buf[:len(keys)]
	for shift := 0; shift < 64; shift += 16 {
		clear(counts)
		for _, sk := range src {
			counts[(sk.K>>shift)&0xFFFF]++
		}
		if counts[(src[0].K>>shift)&0xFFFF] == uint32(len(src)) {
			continue // all keys share this digit
		}
		var total uint32
		for d := range counts {
			c := counts[d]
			counts[d] = total
			total += c
		}
		for _, sk := range src {
			d := (sk.K >> shift) & 0xFFFF
			dst[counts[d]] = sk
			counts[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}
