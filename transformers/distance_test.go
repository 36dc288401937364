package transformers

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/internal/geom"
)

// TestDistanceJoinMonotone joins grown views of two indexes at growing
// distances: the pair count must never shrink, and must match the distance
// join engine.Run computes from the raw elements.
func TestDistanceJoinMonotone(t *testing.T) {
	a := GenerateUniform(400, 35)
	b := GenerateUniform(400, 36)
	ia, err := BuildIndex(append([]Element(nil), a...), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ib, err := BuildIndex(append([]Element(nil), b...), IndexOptions{})
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for _, d := range []float64{0, 10, 50, 200} {
		res, err := Join(ia.Grown(d/2), ib.Grown(d/2), JoinOptions{DiscardPairs: true})
		if err != nil {
			t.Fatal(err)
		}
		if int(res.Stats.Results) < prev {
			t.Fatalf("result count must grow with distance: %d after %d at d=%v",
				res.Stats.Results, prev, d)
		}
		prev = int(res.Stats.Results)
		ref, err := engine.Run(context.Background(), engine.Transformers,
			append([]Element(nil), a...), append([]Element(nil), b...),
			engine.Options{Distance: d, DiscardPairs: true})
		if err != nil {
			t.Fatal(err)
		}
		if ref.Stats.Refinements != res.Stats.Results {
			t.Fatalf("d=%v: grown indexes join %d pairs, engine distance join %d",
				d, res.Stats.Results, ref.Stats.Refinements)
		}
	}
	if prev == 0 {
		t.Fatal("largest radius found nothing")
	}
}

func TestExpandForDistanceValidation(t *testing.T) {
	if _, _, _, err := engine.Prepare(context.Background(), nil, nil, engine.Options{Distance: -1}); err == nil {
		t.Fatal("negative distance should fail")
	}
	out := geom.ExpandedForDistance([]Element{{ID: 1, Box: Box{Lo: Point{0, 0, 0}, Hi: Point{1, 1, 1}}}}, 4)
	if math.Abs(out[0].Box.Lo[0]+2) > 1e-12 || math.Abs(out[0].Box.Hi[0]-3) > 1e-12 {
		t.Fatalf("expanded box wrong: %v", out[0].Box)
	}
}
