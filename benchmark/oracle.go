package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	"repro/internal/engine"
	"repro/internal/geom"
)

// pairHash mixes one pair into 64 bits (splitmix64 finalizer over both IDs);
// summing the hashes gives an order-independent checksum of a pair multiset.
func pairHash(a, b uint64) uint64 {
	x := a*0x9e3779b97f4a7c15 ^ (b + 0xbf58476d1ce4e5b9)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// answer is a join result reduced to what the oracle compares.
type answer struct {
	Count    int
	Checksum uint64
}

func answerOf(pairs []geom.Pair) answer {
	a := answer{Count: len(pairs)}
	for _, p := range pairs {
		a.Checksum += pairHash(p.A, p.B)
	}
	return a
}

// oracle holds the reference answers of one run's request shapes.
type oracle struct {
	a, b []geom.Element
	// slice is a seeded subset of A, sliceIDs its members: the part of every
	// answer that is also compared with naive, pair by pair.
	sliceIDs map[uint64]bool
	slice    []geom.Element
}

func newOracle(a, b []geom.Element, seed int64) *oracle {
	o := &oracle{a: a, b: b, sliceIDs: make(map[uint64]bool)}
	n := naiveSliceN
	if n > len(a) {
		n = len(a)
	}
	for _, i := range rand.New(rand.NewSource(deriveSeed(seed, "oracle/slice"))).Perm(len(a))[:n] {
		o.slice = append(o.slice, a[i])
		o.sliceIDs[a[i].ID] = true
	}
	return o
}

// reference is the in-process pbsm answer for A × (B + extra) at distance.
func (o *oracle) reference(ctx context.Context, distance float64, extra []geom.Element) (answer, error) {
	b := append(slices.Clone(o.b), extra...)
	res, err := engine.Run(ctx, engine.PBSM, slices.Clone(o.a), b, engine.Options{Distance: distance})
	if err != nil {
		return answer{}, fmt.Errorf("oracle pbsm: %w", err)
	}
	return answerOf(res.Pairs), nil
}

// verify checks a fully decoded response for one request shape against pbsm
// (count and checksum over everything) and against naive (exact pair list
// over the seeded slice of A).
func (o *oracle) verify(ctx context.Context, distance float64, got []geom.Pair) (answer, error) {
	want, err := o.reference(ctx, distance, nil)
	if err != nil {
		return answer{}, err
	}
	if have := answerOf(got); have != want {
		return want, fmt.Errorf("distance %v: daemon answered %d pairs (checksum %016x), pbsm oracle %d pairs (checksum %016x)",
			distance, have.Count, have.Checksum, want.Count, want.Checksum)
	}
	res, err := engine.Run(ctx, engine.Naive, slices.Clone(o.slice), slices.Clone(o.b), engine.Options{Distance: distance})
	if err != nil {
		return answer{}, fmt.Errorf("oracle naive: %w", err)
	}
	var sub []geom.Pair
	for _, p := range got {
		if o.sliceIDs[p.A] {
			sub = append(sub, p)
		}
	}
	if !samePairs(sub, res.Pairs) {
		return want, fmt.Errorf("distance %v: daemon and naive disagree on the %d-element slice of A (%d vs %d pairs)",
			distance, len(o.slice), len(sub), len(res.Pairs))
	}
	return want, nil
}

func samePairs(x, y []geom.Pair) bool {
	if len(x) != len(y) {
		return false
	}
	x, y = append([]geom.Pair(nil), x...), append([]geom.Pair(nil), y...)
	engine.SortPairs(x)
	engine.SortPairs(y)
	for i := range x {
		if x[i] != y[i] {
			return false
		}
	}
	return true
}
