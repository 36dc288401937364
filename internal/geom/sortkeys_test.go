package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestKeySorter: on the comparison and the radix path, records come out
// ascending by key with equal keys in ascending index — the order
// sort.SliceStable gives — across signs, zeros, infinities and heavy
// duplication, on keys where only some bytes vary and on keys that tie on the
// bytes one radix sort orders, at sizes on both sides of the radix threshold.
// One sorter is reused across all of them, so a call keeps nothing from the
// previous one.
func TestKeySorter(t *testing.T) {
	values := []float64{math.Inf(-1), -1e300, -2.5, -1, math.Copysign(0, -1), 0, 1e-300, 1, 2.5, 1e300, math.Inf(1)}
	for i := 1; i < len(values); i++ {
		if FloatSortable(values[i-1]) >= FloatSortable(values[i]) {
			t.Fatalf("FloatSortable(%g) >= FloatSortable(%g)", values[i-1], values[i])
		}
	}
	families := []struct {
		name string
		key  func(r *rand.Rand) uint64
	}{
		{"floats", func(r *rand.Rand) uint64 {
			if r.Intn(2) == 0 {
				return FloatSortable((r.Float64() - 0.5) * 1e6)
			}
			return FloatSortable(values[r.Intn(len(values))])
		}},
		// Bytes 1, 3 and 6 vary; the rest are one constant.
		{"some-bytes", func(r *rand.Rand) uint64 {
			return 0x5a5a5a5a5a5a5a5a&^0x00ff0000ff00ff00 | r.Uint64()&0x00ff0000ff00ff00
		}},
		// Five bytes vary: the most significant four between a few values,
		// so the keys tie on them in long runs that the low byte orders.
		{"ties-below-radix", func(r *rand.Rand) uint64 {
			return uint64(r.Intn(3))<<56 | uint64(r.Intn(2))<<48 | uint64(r.Intn(2))<<40 |
				uint64(r.Intn(2))<<32 | uint64(r.Intn(256))
		}},
		{"few-keys", func(r *rand.Rand) uint64 { return uint64(r.Intn(4)) << 60 }},
	}
	sizes := []int{0, 1, 2, 17, RadixMinLen - 1, RadixMinLen, 5000, 100003}
	r := rand.New(rand.NewSource(7))
	var ks KeySorter
	for _, f := range families {
		for _, n := range sizes {
			in := make([]SortKey, n)
			for i := range in {
				in[i] = SortKey{K: f.key(r), I: int32(i)}
			}
			want := slices.Clone(in)
			sort.SliceStable(want, func(i, j int) bool { return want[i].K < want[j].K })
			keys := slices.Clone(in)
			ks.Sort(keys)
			if !slices.Equal(keys, want) {
				t.Fatalf("%s n=%d: order differs from the stable sort's", f.name, n)
			}
		}
	}
}

// BenchmarkKeySorter sorts the keys of uniform coordinates in [0, 1000) at
// the sizes STR sorts: a 100K upload's first level, one of its slabs and one
// of its rows.
func BenchmarkKeySorter(b *testing.B) {
	for _, n := range []int{1200, 11000, 100000} {
		r := rand.New(rand.NewSource(1))
		in := make([]SortKey, n)
		for i := range in {
			in[i] = SortKey{K: FloatSortable(r.Float64() * 1000), I: int32(i)}
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var ks KeySorter
			keys := make([]SortKey, n)
			b.SetBytes(int64(n) * 16)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(keys, in)
				ks.Sort(keys)
			}
		})
	}
}
