// Streaming fan-out tests: the sharded meta-engine must merge per-tile
// streams with buffering bounded by the per-worker channel budget — never by
// the result size — and a stalled consumer must stall the tiles instead of
// letting any of them materialize its output.
package shard_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/engine/enginetest"
	"repro/internal/engine/shard"
	"repro/internal/geom"
	"repro/internal/naive"
)

// countingInner is a trivially correct nested-loop inner engine that counts
// every pair it pushes into the shard merge, so tests can observe how far
// the tiles ran while the consumer was stalled.
type countingInner struct{ emitted *atomic.Uint64 }

var innerEmitted atomic.Uint64

var registerCountingOnce sync.Once

// registerCountingInner puts the counting engine into the process-wide
// registry exactly once (Register panics on duplicates, and -count=2 reruns
// share the process).
func registerCountingInner() {
	registerCountingOnce.Do(func() {
		engine.Register(countingInner{emitted: &innerEmitted})
	})
}

func (countingInner) Name() string { return "counting-naive" }

func (c countingInner) JoinStream(ctx context.Context, a, b []geom.Element, opt engine.Options, emit engine.EmitFunc) (*engine.Result, error) {
	a, b, _, err := engine.Prepare(ctx, a, b, opt)
	if err != nil {
		return nil, err
	}
	res := &engine.Result{Engine: "counting-naive"}
	for _, ea := range a {
		for _, eb := range b {
			if ea.Box.Intersects(eb.Box) {
				res.Stats.Refinements++
				c.emitted.Add(1)
				if err := emit(geom.Pair{A: ea.ID, B: eb.ID}); err != nil {
					return nil, err
				}
			}
		}
	}
	return res, nil
}

// quadraticClusters scatters nPerCluster jittered, mutually overlapping
// boxes around four far-apart centers — a deterministic near-quadratic
// workload (≈ 4·n² pairs against its twin).
func quadraticClusters(nPerCluster int, seed int64, idBase uint64) []geom.Element {
	r := rand.New(rand.NewSource(seed))
	centers := []geom.Point{
		{120, 130, 140}, {850, 180, 220}, {200, 840, 760}, {800, 810, 330},
	}
	out := make([]geom.Element, 0, 4*nPerCluster)
	for ci, c := range centers {
		for i := 0; i < nPerCluster; i++ {
			p := geom.Point{
				c[0] + r.Float64()*10 - 5,
				c[1] + r.Float64()*10 - 5,
				c[2] + r.Float64()*10 - 5,
			}
			out = append(out, geom.Element{
				ID:  idBase + uint64(ci*nPerCluster+i),
				Box: geom.BoxAround(p, geom.Point{12, 12, 12}),
			})
		}
	}
	return out
}

// TestStreamBoundedBuffering: with the consumer stalled after its first few
// pairs, the tiles must come to rest after producing at most the channel
// budget (workers × StreamBuffer) plus one in-hand pair per worker plus the
// boundary duplicates dedup discards — for a result two orders of magnitude
// larger. Releasing the consumer must then drain the complete exact set.
func TestStreamBoundedBuffering(t *testing.T) {
	registerCountingInner()
	// Four far-apart clusters of mutually overlapping boxes: each cluster's
	// cross product joins almost completely (the skew shape whose output the
	// paper calls near-quadratic), and the density-balanced cut spreads the
	// clusters over tiles so several workers produce at once.
	a := quadraticClusters(250, 31, 0)
	b := quadraticClusters(250, 57, 1_000_000)
	reference := naive.Join(enginetest.Copy(a), enginetest.Copy(b))

	const tiles, workers = 7, 4
	// Collected run first: totals (unique pairs + dedup drops) tell us what
	// "ran to completion" would mean for the stalled run below.
	sh := shard.New("counting-naive")
	collected, err := engine.Collect(context.Background(), sh, enginetest.Copy(a), enginetest.Copy(b),
		engine.Options{ShardTiles: tiles, Parallelism: workers})
	if err != nil {
		t.Fatal(err)
	}
	if !naive.Equal(enginetest.CopyPairs(collected.Pairs), enginetest.CopyPairs(reference)) {
		t.Fatalf("collected shard(counting-naive) diverges from naive: %d vs %d pairs",
			len(collected.Pairs), len(reference))
	}
	total := uint64(len(collected.Pairs)) + collected.Stats.Shard.DedupDropped
	// The budget the stalled engine may not exceed: delivered pairs + full
	// channel + one in-hand pair per worker + the dedup-dropped boundary
	// duplicates (discarded, never buffered).
	const delivered = 4
	budget := uint64(delivered+workers*shard.StreamBuffer+workers) + collected.Stats.Shard.DedupDropped
	if total <= budget+budget/2 {
		t.Fatalf("workload too small to observe bounded buffering: total %d, budget %d", total, budget)
	}

	release := make(chan struct{})
	var got []geom.Pair
	done := make(chan error, 1)
	before := innerEmitted.Load()
	go func() {
		n := 0
		_, err := sh.JoinStream(context.Background(), enginetest.Copy(a), enginetest.Copy(b),
			engine.Options{ShardTiles: tiles, Parallelism: workers},
			func(p geom.Pair) error {
				got = append(got, p)
				n++
				if n == delivered {
					<-release // the consumer stalls with the stream open
				}
				return nil
			})
		done <- err
	}()

	// Wait for production to come to rest against the full channel, then
	// hold still a little longer: a bounded pipeline stays put, an unbounded
	// one keeps counting.
	var atRest uint64
	deadline := time.Now().Add(5 * time.Second)
	for {
		cur := innerEmitted.Load() - before
		time.Sleep(50 * time.Millisecond)
		if innerEmitted.Load()-before == cur {
			atRest = cur
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("tiles never came to rest against the stalled consumer")
		}
	}
	time.Sleep(100 * time.Millisecond)
	if settled := innerEmitted.Load() - before; settled != atRest {
		t.Fatalf("tiles kept producing against a stalled consumer: %d -> %d", atRest, settled)
	}
	if atRest > budget {
		t.Fatalf("stalled engine produced %d pairs, budget is %d (workers=%d buffer=%d drops=%d)",
			atRest, budget, workers, shard.StreamBuffer, collected.Stats.Shard.DedupDropped)
	}
	if atRest >= total {
		t.Fatalf("engine ran to completion (%d pairs) despite the stalled consumer", total)
	}

	close(release)
	if err := <-done; err != nil {
		t.Fatalf("released stream failed: %v", err)
	}
	if !naive.Equal(got, enginetest.CopyPairs(reference)) {
		t.Fatalf("released stream delivered %d pairs, naive has %d — set diverges", len(got), len(reference))
	}
}
