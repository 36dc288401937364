package faultinject

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/geom"
)

// Engine wraps a registered join engine with the scenario's join-path
// faults: OpEmitError fails pair emission at the scripted pair count, and
// OpStall blocks emission until the join's context is canceled — a stalled
// worker that only a deadline or a disconnect clears. Register the wrapper
// under a unique name (engine.Register panics on duplicates) and run it like
// any other engine; it streams through the inner engine, so the pair set and
// stats of a fault-free pass are identical to the inner engine's.
type Engine struct {
	name  string
	inner string
	sc    *Scenario
}

// Engine builds the fault-wrapping engine over a registered inner engine.
func (s *Scenario) Engine(name, inner string) *Engine {
	return &Engine{name: name, inner: inner, sc: s}
}

// Name implements engine.Joiner.
func (e *Engine) Name() string { return e.name }

// JoinStream implements engine.Joiner: the inner engine emits through a
// fault-wrapped emit.
func (e *Engine) JoinStream(ctx context.Context, a, b []geom.Element, opt engine.Options, emit engine.EmitFunc) (*engine.Result, error) {
	j, err := engine.Get(e.inner)
	if err != nil {
		return nil, err
	}
	wrapped := func(p geom.Pair) error {
		if _, fire := e.sc.fire(OpEmitError); fire {
			return fmt.Errorf("faultinject: emit pair (%d,%d): %w", p.A, p.B, ErrInjected)
		}
		if _, fire := e.sc.fire(OpStall); fire {
			// A stalled worker holds the (serialized) emit path; only
			// cancellation clears it, so a stall never outlives its
			// request. The engine's cooperative stop flags then unwind
			// the remaining workers.
			<-ctx.Done()
			return ctx.Err()
		}
		return emit(p)
	}
	res, err := j.JoinStream(ctx, a, b, opt, wrapped)
	if err != nil {
		return nil, err
	}
	res.Engine = e.name
	return res, nil
}
