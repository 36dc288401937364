package faultinject

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/storage"
)

func TestTriggerSemantics(t *testing.T) {
	cases := []struct {
		name  string
		fault Fault
		want  []bool // fire pattern over successive operations
	}{
		{"immediate once", Fault{Op: OpReadError, Times: 1},
			[]bool{true, false, false, false}},
		{"after three", Fault{Op: OpReadError, After: 3, Times: 1},
			[]bool{false, false, false, true, false}},
		{"every other, forever", Fault{Op: OpReadError, After: 1, Every: 2},
			[]bool{false, true, false, true, false, true}},
		{"every other, twice", Fault{Op: OpReadError, After: 0, Every: 2, Times: 2},
			[]bool{true, false, true, false, false, false}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := New(tc.fault)
			for i, want := range tc.want {
				if _, got := sc.fire(OpReadError); got != want {
					t.Fatalf("op %d: fire = %v, want %v", i+1, got, want)
				}
			}
		})
	}
}

func TestScenarioNilSafe(t *testing.T) {
	var sc *Scenario
	if _, fire := sc.fire(OpReadError); fire {
		t.Fatal("nil scenario fired")
	}
	st := storage.NewMemStore(0)
	if got := sc.WrapStore(st); got != storage.Store(st) {
		t.Fatal("nil scenario did not pass the store through")
	}
	if sc.String() != "<no faults>" {
		t.Fatalf("String() = %q", sc.String())
	}
}

func TestParseExplicitParams(t *testing.T) {
	sc, err := Parse("read-error:after=100:times=2,slow-read:every=7:delay=2ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	re := sc.fault(OpReadError)
	if re == nil || re.After != 100 || re.Times != 2 || re.Every != 1 {
		t.Fatalf("read-error = %+v", re)
	}
	sr := sc.fault(OpSlowRead)
	if sr == nil || sr.Every != 7 || sr.Delay != 2*time.Millisecond {
		t.Fatalf("slow-read = %+v", sr)
	}
	if sc.fault(OpBuildFail) != nil {
		t.Fatal("unscripted op present")
	}
}

func TestParseSeedDeterminism(t *testing.T) {
	// Omitted parameters are drawn from the seed: same seed, same scenario.
	a, err := Parse("read-error,write-error,slow-read", 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Parse("read-error,write-error,slow-read", 42)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same seed, different scenarios:\n%s\n%s", a, b)
	}
	c, _ := Parse("read-error,write-error,slow-read", 43)
	if a.String() == c.String() {
		t.Fatalf("different seeds produced identical scenarios: %s", a)
	}
	if a.Seed() != 42 {
		t.Fatalf("Seed() = %d", a.Seed())
	}
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"explode",                     // unknown op
		"read-error,read-error",       // duplicate op
		"read-error:after",            // malformed parameter
		"read-error:after=xyz",        // non-numeric count
		"slow-read:delay=fast",        // bad duration
		"read-error:frequency=always", // unknown parameter
	} {
		if _, err := Parse(spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	sc, err := Parse("", 1)
	if err != nil || len(sc.faults) != 0 {
		t.Fatalf("empty spec: %v, %v", sc, err)
	}
}

func TestWrapStoreReadError(t *testing.T) {
	st := storage.NewMemStore(0)
	id, err := st.Append([]geom.Element{{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sc := New(Fault{Op: OpReadError, After: 1, Times: 1})
	ws := sc.WrapStore(st)
	if _, err := ws.View(id); err != nil {
		t.Fatalf("read 1 (clean): %v", err)
	}
	_, err = ws.View(id)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("read 2 = %v, want ErrInjected", err)
	}
	if _, err := ws.View(id); err != nil {
		t.Fatalf("read 3 (times exhausted): %v", err)
	}
}

func TestWrapStoreReadersShareTriggers(t *testing.T) {
	st := storage.NewMemStore(0)
	id, err := st.Append([]geom.Element{{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	sc := New(Fault{Op: OpReadError, After: 1, Times: 1})
	ws := sc.WrapStore(st)
	r1, r2 := ws.OpenReader(), ws.OpenReader()
	if _, err := r1.View(id); err != nil {
		t.Fatalf("reader 1: %v", err)
	}
	// The second reader sees the shared count: its first read is operation 2.
	if _, err := r2.View(id); !errors.Is(err, ErrInjected) {
		t.Fatalf("reader 2 = %v, want shared trigger to fire", err)
	}
}

// TestWrapStoreWriteError: a write fault counts appends, one per page, and a
// refused append leaves no page behind.
func TestWrapStoreWriteError(t *testing.T) {
	sc := New(Fault{Op: OpWriteError, After: 1, Times: 1})
	mem := storage.NewMemStore(0)
	ws := sc.WrapStore(mem)
	if _, err := ws.Append(nil); err != nil {
		t.Fatalf("append 1 (clean): %v", err)
	}
	if _, err := ws.Append(nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("append 2 = %v, want ErrInjected", err)
	}
	if id, err := ws.Append(nil); err != nil || id != 1 {
		t.Fatalf("append after exhaustion: page %d, %v", id, err)
	}
	if s := mem.Stats(); mem.NumPages() != 2 || s.Writes != 2 {
		t.Fatalf("a refused append reached the store: %d pages, %v", mem.NumPages(), s)
	}
}

func TestWrapStoreSlowRead(t *testing.T) {
	st := storage.NewMemStore(0)
	id, err := st.Append([]geom.Element{{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	const delay = 20 * time.Millisecond
	sc := New(Fault{Op: OpSlowRead, Times: 1, Delay: delay})
	ws := sc.WrapStore(st)
	start := time.Now()
	if _, err := ws.View(id); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < delay {
		t.Fatalf("slow read took %v, want >= %v", d, delay)
	}
}

func TestStoreFactoryBuildFail(t *testing.T) {
	sc := New(Fault{Op: OpBuildFail, Times: 2})
	for call := 1; call <= 3; call++ {
		st := sc.StoreFactory()
		_, err := st.Append(nil)
		if call <= 2 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("factory call %d: append = %v, want broken store", call, err)
			}
		} else if err != nil {
			t.Fatalf("factory call %d: %v", call, err)
		}
	}
}

func TestScenarioString(t *testing.T) {
	sc, err := Parse("read-error:after=3:times=1,slow-read:after=0:times=0:every=4:delay=1ms", 7)
	if err != nil {
		t.Fatal(err)
	}
	s := sc.String()
	// The rendering is a valid spec naming both ops with their parameters.
	if !strings.Contains(s, "read-error:after=3:times=1") || !strings.Contains(s, "slow-read") {
		t.Fatalf("String() = %q", s)
	}
	if _, err := Parse(s, 7); err != nil {
		t.Fatalf("String() round-trip: %v", err)
	}
}
