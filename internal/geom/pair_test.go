package geom

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestPairAppendJSONMatchesEncodingJSON: the append encoder and the struct
// tags are two statements of one wire format — over the extremes and random
// IDs the bytes are equal, and what AppendJSON wrote decodes back through the
// tags. It extends dst, never more than PairJSONMax, and allocates nothing
// when dst has that much room.
func TestPairAppendJSONMatchesEncodingJSON(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	ids := []uint64{0, 1, 9, 10, math.MaxUint32, math.MaxInt64, math.MaxUint64}
	for i := 0; i < 2000; i++ {
		ids = append(ids, r.Uint64()>>uint(r.Intn(64)))
	}
	for i, a := range ids {
		p := Pair{A: a, B: ids[len(ids)-1-i]}
		want, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		got := p.AppendJSON([]byte("x"))
		if string(got) != "x"+string(want) {
			t.Fatalf("AppendJSON(%+v) = %s, encoding/json writes %s", p, got[1:], want)
		}
		if len(want) > PairJSONMax {
			t.Fatalf("%s is %d bytes, PairJSONMax says %d", want, len(want), PairJSONMax)
		}
		var back Pair
		if err := json.Unmarshal(got[1:], &back); err != nil || back != p {
			t.Fatalf("%s decodes to %+v (%v), want %+v", got[1:], back, err, p)
		}
	}
	buf := make([]byte, 0, PairJSONMax)
	widest := Pair{A: math.MaxUint64, B: math.MaxUint64}
	if avg := testing.AllocsPerRun(100, func() { buf = widest.AppendJSON(buf[:0]) }); avg != 0 || len(buf) != PairJSONMax {
		t.Fatalf("widest pair: %d bytes (PairJSONMax %d), %.1f allocs per encode, want 0", len(buf), PairJSONMax, avg)
	}
}
