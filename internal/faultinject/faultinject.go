// Package faultinject injects scripted, seedable faults into the spatial
// join serving stack's storage so graceful degradation is proven, not
// assumed. A Scenario wraps storage stores with faults — read errors, write
// errors, slow reads, failing index builds — that fire at scripted operation
// counts; the server test suite and the spatialjoind -faults flag run real
// traffic through it and assert that every scenario ends in correct results,
// a clean typed error, or a well-formed 429/503, never a hang, a leaked
// goroutine, or a wrong pair set. Nothing retries an injected fault: an
// upload whose build it fails answers 5xx and installs nothing, a merge it
// fails keeps its delta, and a join it fails returns the error.
//
// Scenarios are scripted as comma-separated fault clauses:
//
//	read-error:after=100:times=1,slow-read:every=7:delay=2ms
//
// Parameters omitted from a clause are drawn deterministically from the
// scenario seed, so a single seed reproduces an entire randomized chaos run.
package faultinject

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected marks every fault this package injects: a failure it caused
// wraps it, so a test tells an injected fault from any other error with
// errors.Is.
var ErrInjected = errors.New("faultinject: injected fault")

// Fault operation kinds.
const (
	// OpReadError fails store page reads.
	OpReadError = "read-error"
	// OpWriteError fails store page appends.
	OpWriteError = "write-error"
	// OpSlowRead delays store page reads.
	OpSlowRead = "slow-read"
	// OpBuildFail hands out stores whose appends fail, per build (the
	// trigger counts StoreFactory calls, not pages).
	OpBuildFail = "build-fail"
)

var opKinds = []string{OpReadError, OpWriteError, OpSlowRead, OpBuildFail}

// trigger decides, per operation, whether a fault fires: operations 1..After
// pass clean, then every Every-th operation faults, at most Times times
// (Times <= 0: forever). All methods are safe for concurrent use.
type trigger struct {
	after, times, every int64
	n, fired            atomic.Int64
}

func (t *trigger) fire() bool {
	n := t.n.Add(1)
	if n <= t.after {
		return false
	}
	if t.every > 1 && (n-t.after-1)%t.every != 0 {
		return false
	}
	if t.times > 0 && t.fired.Add(1) > t.times {
		return false
	}
	return true
}

// Fault is one scripted fault stream within a scenario.
type Fault struct {
	// Op is the operation kind (OpReadError, ...).
	Op string
	// After is the number of clean operations before the first fault.
	After int64
	// Times caps how many times the fault fires (<= 0: forever).
	Times int64
	// Every fires the fault on every Every-th eligible operation
	// (slow-read pacing; 1 = every operation past After).
	Every int64
	// Delay is the injected latency of OpSlowRead.
	Delay time.Duration

	trig *trigger
}

func (f *Fault) String() string {
	s := fmt.Sprintf("%s:after=%d:times=%d", f.Op, f.After, f.Times)
	if f.Every > 1 {
		s += fmt.Sprintf(":every=%d", f.Every)
	}
	if f.Delay > 0 {
		s += fmt.Sprintf(":delay=%s", f.Delay)
	}
	return s
}

// Scenario is one scripted fault configuration, shared by every store it
// wraps. Safe for concurrent use.
type Scenario struct {
	seed   int64
	faults map[string]*Fault
}

// New assembles a scenario from explicit faults (tests that want exact
// control; Parse is the string front end). Later faults of the same op
// replace earlier ones.
func New(faults ...Fault) *Scenario {
	sc := &Scenario{faults: make(map[string]*Fault)}
	for _, f := range faults {
		f := f
		if f.Every < 1 {
			f.Every = 1
		}
		f.trig = &trigger{after: f.After, times: f.Times, every: f.Every}
		sc.faults[f.Op] = &f
	}
	return sc
}

// Seed returns the seed Parse drew omitted parameters from (0 for New).
func (s *Scenario) Seed() int64 { return s.seed }

// fault returns the fault stream of one op kind, or nil. Nil scenarios have
// no faults, so wiring may pass a nil *Scenario freely.
func (s *Scenario) fault(op string) *Fault {
	if s == nil {
		return nil
	}
	return s.faults[op]
}

// fire reports whether op faults at this operation, and the fault it fired
// from.
func (s *Scenario) fire(op string) (*Fault, bool) {
	f := s.fault(op)
	if f == nil {
		return nil, false
	}
	return f, f.trig.fire()
}

func (s *Scenario) String() string {
	if s == nil || len(s.faults) == 0 {
		return "<no faults>"
	}
	parts := make([]string, 0, len(s.faults))
	for _, f := range s.faults {
		parts = append(parts, f.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Parse compiles a scenario spec: comma-separated clauses of
// op[:param=value...], with parameters after, times, every, and delay
// (a time.Duration). Omitted parameters are drawn deterministically from
// seed, so "read-error,slow-read" with a logged seed is a complete reproduction
// recipe. An empty spec is a valid no-fault scenario.
func Parse(spec string, seed int64) (*Scenario, error) {
	sc := &Scenario{seed: seed, faults: make(map[string]*Fault)}
	rng := rand.New(rand.NewSource(seed))
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return sc, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(clause), ":")
		op := parts[0]
		if !validOp(op) {
			return nil, fmt.Errorf("faultinject: unknown fault op %q (known: %s)", op, strings.Join(opKinds, ", "))
		}
		if _, dup := sc.faults[op]; dup {
			return nil, fmt.Errorf("faultinject: duplicate fault op %q", op)
		}
		f := defaultFault(op, rng)
		for _, p := range parts[1:] {
			k, v, ok := strings.Cut(p, "=")
			if !ok {
				return nil, fmt.Errorf("faultinject: %s: malformed parameter %q (want key=value)", op, p)
			}
			switch k {
			case "after", "times", "every":
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("faultinject: %s: bad %s %q: %v", op, k, v, err)
				}
				switch k {
				case "after":
					f.After = n
				case "times":
					f.Times = n
				case "every":
					f.Every = n
				}
			case "delay":
				d, err := time.ParseDuration(v)
				if err != nil {
					return nil, fmt.Errorf("faultinject: %s: bad delay %q: %v", op, v, err)
				}
				f.Delay = d
			default:
				return nil, fmt.Errorf("faultinject: %s: unknown parameter %q", op, k)
			}
		}
		if f.Every < 1 {
			f.Every = 1
		}
		f.trig = &trigger{after: f.After, times: f.Times, every: f.Every}
		sc.faults[op] = f
	}
	return sc, nil
}

// defaultFault draws an op's unspecified parameters from the scenario rng.
// The ranges keep randomized chaos runs both fast and meaningful: faults
// land within the operation counts small test joins actually perform, and
// injected latencies stay in single-digit milliseconds.
func defaultFault(op string, rng *rand.Rand) *Fault {
	f := &Fault{Op: op, Every: 1}
	switch op {
	case OpReadError, OpWriteError:
		f.After = rng.Int63n(256)
		f.Times = 1 + rng.Int63n(3)
	case OpSlowRead:
		f.After = rng.Int63n(64)
		f.Times = 0 // forever
		f.Every = 2 + rng.Int63n(7)
		f.Delay = time.Duration(1+rng.Int63n(3)) * time.Millisecond
	case OpBuildFail:
		f.After = 0
		f.Times = 1 + rng.Int63n(2)
	}
	return f
}

func validOp(op string) bool {
	for _, k := range opKinds {
		if k == op {
			return true
		}
	}
	return false
}
