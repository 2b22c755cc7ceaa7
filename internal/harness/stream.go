package harness

import (
	"context"
	"fmt"
)

// This file holds the resumable trial-range execution layer used by the
// distributed sweep coordinator and its worker processes (internal/dist):
// the canonical flat trial list (ExpandAll), and a Stream that executes
// arbitrary slot sub-ranges of that list on one pooled worker context,
// handing each result to the caller the moment it settles. Range execution
// is what makes leases cheap to re-issue after a failure — any contiguous
// slot range, minus the slots already completed elsewhere, is a valid unit
// of work, and re-running a slot always reproduces the same Result because a
// trial's outcome is a pure function of its Trial value.

// TrialRef couples one expanded trial with its scenario and its global slot
// in the Runner's canonical order (scenarios in argument order, instances in
// declaration order, trial indices ascending). The slot is the coordinate
// distributed execution leases, dedups, and merges by: two processes that
// expand the same scenarios under the same root seed agree on every slot's
// Trial value.
type TrialRef struct {
	Slot     int
	Scenario *Scenario
	Trial    Trial
}

// ExpandAll lists every trial of the scenarios in the Runner's canonical
// order, each tagged with its global slot. Runner.Run executes exactly this
// list; Stream executes sub-ranges of it.
func (r *Runner) ExpandAll(scenarios ...*Scenario) []TrialRef {
	var refs []TrialRef
	for _, sc := range scenarios {
		for _, t := range Expand(sc, r.Root) {
			refs = append(refs, TrialRef{Slot: len(refs), Scenario: sc, Trial: t})
		}
	}
	return refs
}

// Stream executes slot ranges of one sweep's canonical trial list on a
// single pooled worker Context, reusing its engine, scratch, and graph cache
// across every range it runs. It is the execution core of a distributed
// sweep worker: the coordinator grants it ranges (leases) in any order, and
// each completed trial is streamed out through a callback immediately, so a
// crash between trials loses nothing that was already emitted.
//
// A Stream is single-threaded: ranges run sequentially on the owning
// goroutine. Results are byte-identical to Runner.Run's for the same slots,
// because both reduce to ExecuteCtx over identical Trial values (see the
// package doc's worker-context contract).
type Stream struct {
	refs []TrialRef
	ctx  *Context
}

// Stream builds the canonical trial list for the scenarios and a pooled
// execution context.
func (r *Runner) Stream(scenarios ...*Scenario) *Stream {
	return &Stream{
		refs: r.ExpandAll(scenarios...),
		ctx:  newContextShared(sharedGraphs(r.Root, scenarios...)),
	}
}

// Trials returns the canonical trial list. The slice is shared — callers
// must treat it as read-only.
func (s *Stream) Trials() []TrialRef { return s.refs }

// RunRange executes the slots in [start, end), skipping any slot for which
// skip returns true (nil skips nothing), and hands each Result to emit as
// soon as the trial settles. Between trials it polls ctx and stops with
// ctx.Err() when canceled, so a canceled range never emits a partial trial —
// every emitted Result is complete and final. Emitted results are identical
// to what Runner.Run would have produced for the same slots.
func (s *Stream) RunRange(ctx context.Context, start, end int, skip func(slot int) bool, emit func(TrialRef, Result)) error {
	if start < 0 || end > len(s.refs) || start > end {
		return fmt.Errorf("harness: range [%d, %d) outside the %d-trial sweep", start, end, len(s.refs))
	}
	for i := start; i < end; i++ {
		if ctx != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if skip != nil && skip(i) {
			continue
		}
		ref := s.refs[i]
		emit(ref, ExecuteCtx(s.ctx, ref.Scenario, ref.Trial))
	}
	return nil
}
