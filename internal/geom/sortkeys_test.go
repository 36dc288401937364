package geom

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// TestKeySorter: on both the comparison and the radix path, records come out
// ascending by key with equal keys in ascending index — the order
// sort.SliceStable gives — across signs, zeros, infinities and heavy
// duplication, and a sorter reused across slices of different lengths keeps
// nothing from the previous call.
func TestKeySorter(t *testing.T) {
	values := []float64{math.Inf(-1), -1e300, -2.5, -1, math.Copysign(0, -1), 0, 1e-300, 1, 2.5, 1e300, math.Inf(1)}
	for i := 1; i < len(values); i++ {
		if FloatSortable(values[i-1]) >= FloatSortable(values[i]) {
			t.Fatalf("FloatSortable(%g) >= FloatSortable(%g)", values[i-1], values[i])
		}
	}
	r := rand.New(rand.NewSource(7))
	var ks KeySorter
	for _, n := range []int{0, 1, 2, RadixMinLen - 1, RadixMinLen, 3 * RadixMinLen, 17, 2 * RadixMinLen} {
		keys := make([]SortKey, n)
		for i := range keys {
			v := values[r.Intn(len(values))]
			if r.Intn(2) == 0 {
				v = (r.Float64() - 0.5) * 1e6
			}
			keys[i] = SortKey{K: FloatSortable(v), I: int32(i)}
		}
		want := slices.Clone(keys)
		sort.SliceStable(want, func(i, j int) bool { return want[i].K < want[j].K })
		ks.Sort(keys)
		if !slices.Equal(keys, want) {
			t.Fatalf("n=%d: order differs from the stable sort's", n)
		}
	}
}
