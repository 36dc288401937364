package server

import (
	"context"
	"math"
	"testing"

	"repro/internal/engine"
	"repro/transformers"
)

// deltaFuzzBoxes decodes six bytes an element into boxes on a grid of
// quarters — low corner (b0, b1, b2)/4, sides (b3, b4, b5 mod 32)/4 — so
// boxes that share a face, or that touch once grown by a quartered
// distance, are common and their arithmetic is exact. IDs count from id; at
// most 48 elements are decoded.
func deltaFuzzBoxes(raw []byte, id uint64) []transformers.Element {
	var out []transformers.Element
	for ; len(raw) >= 6 && len(out) < 48; raw = raw[6:] {
		var e transformers.Element
		e.ID = id + uint64(len(out))
		for d := 0; d < 3; d++ {
			e.Box.Lo[d] = float64(raw[d]) / 4
			e.Box.Hi[d] = e.Box.Lo[d] + float64(raw[3+d]%32)/4
		}
		out = append(out, e)
	}
	return out
}

// FuzzDeltaJoin is differential: a join through Service.Join over datasets
// that carry append deltas — a fuzzed base and delta on one side or both —
// must be multiset-equal to naive over base ∪ delta, at distance 0 and at the
// fuzzed distance, resolved by "auto" and requested as transformers. The
// summary's results count every pair, its delta pairs the ones with a delta
// element, and a pair with a delta never resolves "auto" to inmem.
func FuzzDeltaJoin(f *testing.F) {
	cube := func(lo, side byte) []byte { return []byte{lo, lo, lo, side, side, side} }
	cat := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	// Touching exactly at the grown boundary: [0,1] and [2,3] per axis
	// meet at 1.5 when grown by distance 1 / 2, base to delta both ways and
	// delta to delta; [0,1] and [1,2] share a face at distance 0.
	f.Add(cube(0, 4), cube(16, 4), cube(8, 4), cube(4, 4), uint8(4))
	// An empty base on A: only delta×base and delta×delta can pair.
	f.Add([]byte(nil), cat(cube(0, 8), cube(20, 4)), cat(cube(4, 8), cube(24, 4)), cube(2, 2), uint8(2))
	// An empty delta on A, B's delta overlapping A's base.
	f.Add(cat(cube(0, 8), cube(40, 8)), []byte(nil), cube(100, 8), cat(cube(2, 2), cube(44, 0)), uint8(1))
	// Both sides carrying deltas that overlap each other and both bases.
	f.Add(cat(cube(0, 20), cube(60, 8)), cat(cube(10, 20), cube(62, 4)), cat(cube(5, 20), cube(200, 4)), cat(cube(12, 16), cube(64, 2)), uint8(6))
	// A pair at rest: no delta on either side.
	f.Add(cat(cube(0, 8), cube(9, 8)), []byte(nil), cat(cube(4, 8), cube(17, 0)), []byte(nil), uint8(3))
	f.Fuzz(func(t *testing.T, rawBaseA, rawDeltaA, rawBaseB, rawDeltaB []byte, dq uint8) {
		baseA, deltaA := deltaFuzzBoxes(rawBaseA, 0), deltaFuzzBoxes(rawDeltaA, 1<<20)
		baseB, deltaB := deltaFuzzBoxes(rawBaseB, 0), deltaFuzzBoxes(rawDeltaB, 1<<20)
		ctx := context.Background()
		svc := NewService(Config{Workers: 2, DeltaMaxElements: -1})
		for _, side := range []struct {
			name        string
			base, delta []transformers.Element
		}{{"a", baseA, deltaA}, {"b", baseB, deltaB}} {
			if _, err := svc.AddDataset(ctx, side.name, cpElems(side.base)); err != nil {
				t.Fatal(err)
			}
			if len(side.delta) > 0 {
				if _, err := svc.Append(ctx, side.name, cpElems(side.delta)); err != nil {
					t.Fatal(err)
				}
			}
		}
		allA, allB := append(cpElems(baseA), deltaA...), append(cpElems(baseB), deltaB...)
		for _, d := range []float64{0, float64(max(dq, 1)) / 4} {
			want := naiveRef(allA, allB, d)
			var wantDelta uint64
			for _, p := range want {
				if p.A >= 1<<20 || p.B >= 1<<20 {
					wantDelta++
				}
			}
			for _, algo := range []string{AlgorithmAuto, engine.Transformers} {
				out, err := svc.Join(ctx, "a", "b", JoinParams{Algorithm: algo, Distance: d, NoCache: true})
				if err != nil {
					t.Fatalf("d=%v %s: %v", d, algo, err)
				}
				if !pairsMatch(out.Pairs, want) {
					t.Fatalf("d=%v %s (%s): %d pairs, naive over base ∪ delta has %d", d, algo, out.Summary.Algorithm, len(out.Pairs), len(want))
				}
				if out.Summary.Results != uint64(len(want)) {
					t.Fatalf("d=%v %s: summary counts %d results of %d", d, algo, out.Summary.Results, len(want))
				}
				if len(deltaA)+len(deltaB) == 0 {
					continue
				}
				if out.Summary.Algorithm != engine.Transformers {
					t.Fatalf("d=%v %s: a pair with a delta ran %s", d, algo, out.Summary.Algorithm)
				}
				if dl := out.Summary.Delta; dl == nil || dl.Pairs != wantDelta || dl.ElementsA != len(deltaA) || dl.ElementsB != len(deltaB) {
					t.Fatalf("d=%v %s: delta summary %+v, want %d pairs over %d+%d delta elements", d, algo, dl, wantDelta, len(deltaA), len(deltaB))
				}
			}
		}
	})
}

// TestAutoLeavesInMemOnceAppended: "auto" resolves a pair either side of
// which has taken an append since its last Put to transformers, with inmem
// excluded for the reason partitionRetired in the response's planner report
// and in the planner sample; a merge carries the epoch, so the pair stays
// there, and a Put returns it to the planner. The same pair at rest —
// selective's uniform × dense_cluster shape, with transformers measured far
// slower — resolves to inmem, and an explicit inmem request on the written
// pair still runs inmem.
func TestAutoLeavesInMemOnceAppended(t *testing.T) {
	const n = 5000
	ctx := context.Background()
	svc := NewService(Config{Workers: 2, DeltaMaxElements: -1})
	u, dc := transformers.GenerateUniform(n, 1), transformers.GenerateDenseCluster(n, 2)
	extra := transformers.GenerateDenseCluster(500, 3)
	for i := range extra {
		extra[i].ID += 1 << 20
	}
	addDataset(t, svc, "u", cpElems(u))
	addDataset(t, svc, "dc", cpElems(dc))

	// join runs one join and returns its outcome, and the engine and inmem's
	// exclusion reason its planner sample records.
	join := func(algo string) (*JoinOutcome, []string) {
		t.Helper()
		out, err := svc.Join(ctx, "u", "dc", JoinParams{Algorithm: algo, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		s := svc.PlannerRecorder().Snapshot()[0] // newest first
		return out, []string{s.Engine, s.Excluded[engine.InMem]}
	}
	// routed checks that auto left inmem for partitionRetired, in the
	// response and in the sample.
	routed := func(when string) {
		t.Helper()
		out, sample := join(AlgorithmAuto)
		if out.Summary.Algorithm != engine.Transformers || sample[0] != engine.Transformers {
			t.Fatalf("%s: auto ran %s (sample %s), want transformers", when, out.Summary.Algorithm, sample[0])
		}
		if sample[1] != partitionRetired {
			t.Fatalf("%s: the sample excludes inmem for %q", when, sample[1])
		}
		pl := out.Summary.Planner
		if pl == nil || len(pl.Scores) != 2 || pl.Scores[0].Engine != engine.Transformers ||
			pl.Scores[1].Engine != engine.InMem || !math.IsInf(pl.Scores[1].CostMS, 1) || pl.Scores[1].Reason != partitionRetired {
			t.Fatalf("%s: planner report %+v", when, pl)
		}
	}
	atRest := func(when string) {
		t.Helper()
		out, sample := join(AlgorithmAuto)
		if out.Summary.Algorithm != engine.InMem || sample[0] != engine.InMem || sample[1] != "" {
			t.Fatalf("%s: auto ran %s (sample %s, inmem excluded for %q), want inmem", when, out.Summary.Algorithm, sample[0], sample[1])
		}
	}

	for i := 0; i < 2; i++ {
		svc.walls.Observe("u", "dc", 0, engine.Transformers, 1e6)
	}
	atRest("before any write")
	if _, err := svc.Append(ctx, "dc", cpElems(extra[:250])); err != nil {
		t.Fatal(err)
	}
	routed("after an append to B")
	out, sample := join(engine.InMem)
	if out.Summary.Algorithm != engine.InMem || sample[0] != engine.InMem {
		t.Fatalf("an explicit inmem request on the written pair ran %s (sample %s)", out.Summary.Algorithm, sample[0])
	}
	want := naiveRef(u, append(cpElems(dc), extra[:250]...), 0)
	if !pairsMatch(out.Pairs, want) {
		t.Fatalf("explicit inmem: %d pairs, naive has %d", len(out.Pairs), len(want))
	}
	if merged, err := svc.Catalog().MergeDelta(ctx, "dc"); err != nil || merged != 250 {
		t.Fatalf("merge compacted %d elements: %v", merged, err)
	}
	if info := datasetInfo(t, svc, "dc"); info.DeltaElements != 0 || info.DeltaEpoch == 0 {
		t.Fatalf("after the merge: %+v, want an empty delta at a carried epoch", info)
	}
	routed("after a merge")
	addDataset(t, svc, "dc", cpElems(dc))
	atRest("after a Put of B")
	if _, err := svc.Append(ctx, "u", cpElems(extra[250:])); err != nil {
		t.Fatal(err)
	}
	routed("after an append to A")
	out, _ = join(AlgorithmAuto)
	if want := naiveRef(append(cpElems(u), extra[250:]...), dc, 0); !pairsMatch(out.Pairs, want) {
		t.Fatalf("auto after an append to A: %d pairs, naive has %d", len(out.Pairs), len(want))
	}
	addDataset(t, svc, "u", cpElems(u))
	atRest("after a Put of A")
}
