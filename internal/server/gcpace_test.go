package server

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"testing"
	"time"

	"repro/internal/storage"
	"repro/transformers"
)

func TestPacedPercent(t *testing.T) {
	const mib = 1 << 20
	for _, c := range []struct {
		name           string
		base           int
		live, resident int64
		want           int
	}{
		{"no resident bytes", 100, 64 * mib, 0, 100},
		{"half resident", 100, 64 * mib, 32 * mib, 50},
		{"rounds up", 100, 3 * 64 * mib, 2 * 64 * mib, 34},
		{"resident = live: the floor", 100, 64 * mib, 64 * mib, 2},
		{"resident > live: the floor", 100, 64 * mib, 80 * mib, 2},
		{"a working set above the floor is the headroom", 100, 64 * mib, 61 * mib, 5},
		{"10 GB resident: at least 1", 100, 10<<30 + 8*mib, 10 << 30, 1},
		{"small heap: never above base", 100, 2 * mib, 0, 100},
		{"small catalog: the working set as headroom", 100, 3 * mib, 1 * mib, 67},
		{"GOGC=200 scales", 200, 64 * mib, 32 * mib, 100},
		{"GOGC=200 floor", 200, 64 * mib, 64 * mib, 4},
		{"GOGC=off: no pacing", -1, 64 * mib, 32 * mib, -1},
		{"no live heap yet", 100, 0, 0, 100},
	} {
		if got := pacedPercent(c.base, c.live, c.resident); got != c.want {
			t.Errorf("%s: pacedPercent(%d, %d, %d) = %d, want %d", c.name, c.base, c.live, c.resident, got, c.want)
		}
	}
}

// readRuntime reads one uint64 runtime metric.
func readRuntime(name string) uint64 {
	sample := []metrics.Sample{{Name: name}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// TestPaceGCHoldsTheGoalAtTheWorkingSet: with the pacer started, the heap goal
// after two 100K uploads, and again after an inmem join has made the pair's
// partition resident, is at most live + max(1 MiB, live − resident), 5 %
// over for the stacks and globals the runtime adds. Unpaced, it would be
// twice live. The pacer acts once a cycle has ended, so the bound is awaited.
func TestPaceGCHoldsTheGoalAtTheWorkingSet(t *testing.T) {
	if testing.Short() {
		t.Skip("uploads 200K elements")
	}
	const n = 100_000
	ts, svc := newTestServer(t, Config{})
	t.Cleanup(svc.PaceGC())
	paced := func(when string) {
		t.Helper()
		var goal, bound, live, resident int64
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
			live, resident = int64(readRuntime("/gc/heap/live:bytes")), svc.Stats().Catalog.ResidentBytes
			goal = int64(readRuntime("/gc/heap/goal:bytes"))
			bound = int64(1.05 * float64(live+max(minHeadroom, live-resident)))
			if goal <= bound || time.Now().After(deadline) {
				break
			}
		}
		t.Logf("%s: heap goal %d B over %d B live, %d B resident (bound %d)", when, goal, live, resident, bound)
		if goal > bound {
			t.Fatalf("%s: heap goal %d B, want at most 1.05 x (%d live + max(%d, live - %d resident)) = %d", when, goal, live, minHeadroom, resident, bound)
		}
	}
	uploadPiped(t, ts.URL, "u", func() []transformers.Element { return transformers.GenerateUniform(n, 3) })
	uploadPiped(t, ts.URL, "d", func() []transformers.Element { return transformers.GenerateDenseCluster(n, 4) })
	paced("after two uploads")
	if status, doc := postJSON(t, ts.URL+"/join", `{"a":"u","b":"d","algorithm":"inmem","no_cache":true}`); status != http.StatusOK {
		t.Fatalf("inmem join: status %d: %v", status, doc)
	}
	if st := svc.Stats().Catalog; st.Partitions != 1 || st.ResidentBytes != 56*2*n+st.PartitionBytes {
		t.Fatalf("after the join: %d partitions, resident %d B, want 1 and 56 x %d + %d", st.Partitions, st.ResidentBytes, 2*n, st.PartitionBytes)
	}
	runtime.GC()
	paced("after an inmem join")
}

// TestPaceGCStopEndsTheChain: the pacer keeps its service's catalog
// reachable while it runs, and stop ends the finalizer chain, so the service
// is collected, and restores the process's GC percent. A finalizer on the
// Service itself would never run: its metric closures and the catalog's build
// observer point back at it, and the runtime does not finalize an object in a
// cycle. So the test watches a marker that only the service reaches, through
// the store factory its catalog keeps.
func TestPaceGCStopEndsTheChain(t *testing.T) {
	base := readRuntime("/gc/gogc:percent")
	collected := make(chan struct{})
	stop := func() func() {
		marker := new([32]byte)
		runtime.SetFinalizer(marker, func(*[32]byte) { close(collected) })
		return NewService(Config{StoreFactory: func() storage.Store {
			runtime.KeepAlive(marker)
			return nil
		}}).PaceGC()
	}()
	gcUntil := func(cycles int) bool {
		for i := 0; i < cycles; i++ {
			runtime.GC()
			select {
			case <-collected:
				return true
			case <-time.After(10 * time.Millisecond):
			}
		}
		return false
	}
	if gcUntil(4) {
		t.Fatal("service collected while its pacer runs")
	}
	stop()
	if got := readRuntime("/gc/gogc:percent"); got != base {
		t.Fatalf("GC percent %d after stop, want %d", got, base)
	}
	if !gcUntil(20) {
		t.Fatal("service not collected 20 cycles after stop")
	}
}

// TestPaceGCOffDoesNothing: with the collector off (GOGC=off), PaceGC leaves
// it off, and so does its stop.
func TestPaceGCOffDoesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	stop := NewService(Config{}).PaceGC()
	runtime.GC()
	runtime.GC()
	stop()
	if got := int64(readRuntime("/gc/gogc:percent")); got != -1 {
		t.Fatalf("GC percent %d under GOGC=off, want -1", got)
	}
}
