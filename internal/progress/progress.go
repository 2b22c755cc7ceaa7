// Package progress defines the cancellation and observation plumbing shared
// by every round loop in the simulator: Recursive-BFS stages (internal/core),
// the Decay BFS wavefront (internal/decay), and the duty-cycled dissemination
// slots (internal/labelcast).
//
// The two concerns travel together as a Hooks value because they have the
// same grain: a round loop checks for cancellation and reports progress at
// phase boundaries — once per stage, wavefront step, or slot batch — never
// per physical slot. The zero Hooks value disables both at the cost of a nil
// check, which is what keeps the zero-allocation hot paths allocation-free
// when no driver is watching.
package progress

import "context"

// Observer receives streaming progress events from algorithm round loops.
// Implementations must be cheap and, when one observer is shared by
// concurrent trials (e.g. a sweep-wide counter), safe for concurrent use.
type Observer interface {
	// PhaseStart announces that the named phase began.
	PhaseStart(phase string)
	// PhaseEnd announces that the named phase finished (or was canceled).
	PhaseEnd(phase string)
	// RoundBatch reports that the named phase advanced by rounds time units
	// (Local-Broadcast units or polling slots, per the phase's loop).
	RoundBatch(phase string, rounds int64)
}

// Hooks bundles the cancellation context and observer a driver threads
// through a round loop. The zero value is fully disabled and always legal.
type Hooks struct {
	// Ctx, when non-nil, is polled at phase boundaries; a canceled context
	// makes the loop return early with whatever partial result it has.
	Ctx context.Context
	// Obs, when non-nil, receives phase and round-batch events.
	Obs Observer
}

// Err returns the context's error, or nil when no context is attached.
func (h Hooks) Err() error {
	if h.Ctx == nil {
		return nil
	}
	return h.Ctx.Err()
}

// Start emits a PhaseStart event when an observer is attached.
func (h Hooks) Start(phase string) {
	if h.Obs != nil {
		h.Obs.PhaseStart(phase)
	}
}

// End emits a PhaseEnd event when an observer is attached.
func (h Hooks) End(phase string) {
	if h.Obs != nil {
		h.Obs.PhaseEnd(phase)
	}
}

// Rounds emits a RoundBatch event when an observer is attached and the batch
// is non-empty.
func (h Hooks) Rounds(phase string, n int64) {
	if h.Obs != nil && n > 0 {
		h.Obs.RoundBatch(phase, n)
	}
}

// Funcs adapts plain functions into an Observer; nil fields are skipped.
// It is the convenience implementation for tests and one-off drivers.
type Funcs struct {
	OnPhaseStart func(phase string)
	OnPhaseEnd   func(phase string)
	OnRoundBatch func(phase string, rounds int64)
}

// PhaseStart implements Observer.
func (f Funcs) PhaseStart(phase string) {
	if f.OnPhaseStart != nil {
		f.OnPhaseStart(phase)
	}
}

// PhaseEnd implements Observer.
func (f Funcs) PhaseEnd(phase string) {
	if f.OnPhaseEnd != nil {
		f.OnPhaseEnd(phase)
	}
}

// RoundBatch implements Observer.
func (f Funcs) RoundBatch(phase string, rounds int64) {
	if f.OnRoundBatch != nil {
		f.OnRoundBatch(phase, rounds)
	}
}

// LeaseObserver receives coordinator-level lifecycle events from a
// distributed sweep (internal/dist): lease grants (including re-leases),
// completions, revocations, and worker process churn. It is the distributed sibling of Observer — same contract:
// implementations must be cheap, and the coordinator invokes them from its
// single event loop, so they need not be safe for concurrent use.
type LeaseObserver interface {
	// LeaseGranted reports that lease was granted to worker incarnation
	// worker, covering slots [start, end) minus skipped already-done slots.
	LeaseGranted(lease, worker, start, end int)
	// LeaseDone reports that every slot of the lease is completed.
	LeaseDone(lease int)
	// LeaseRevoked reports that a grant ended without completing the lease
	// (worker exit, heartbeat loss); the remainder will be re-leased or run
	// in-process.
	LeaseRevoked(lease, worker int, reason string)
	// WorkerStarted reports that worker incarnation worker began serving.
	WorkerStarted(worker int)
	// WorkerExited reports that a worker process ended, with the reason
	// (clean shutdown, crash exit status, heartbeat timeout, ...).
	WorkerExited(worker int, reason string)
}

// LeaseFuncs adapts plain functions into a LeaseObserver; nil fields are
// skipped.
type LeaseFuncs struct {
	OnLeaseGranted func(lease, worker, start, end int)
	OnLeaseDone    func(lease int)
	OnLeaseRevoked func(lease, worker int, reason string)
	OnWorkerStart  func(worker int)
	OnWorkerExit   func(worker int, reason string)
}

// LeaseGranted implements LeaseObserver.
func (f LeaseFuncs) LeaseGranted(lease, worker, start, end int) {
	if f.OnLeaseGranted != nil {
		f.OnLeaseGranted(lease, worker, start, end)
	}
}

// LeaseDone implements LeaseObserver.
func (f LeaseFuncs) LeaseDone(lease int) {
	if f.OnLeaseDone != nil {
		f.OnLeaseDone(lease)
	}
}

// LeaseRevoked implements LeaseObserver.
func (f LeaseFuncs) LeaseRevoked(lease, worker int, reason string) {
	if f.OnLeaseRevoked != nil {
		f.OnLeaseRevoked(lease, worker, reason)
	}
}

// WorkerStarted implements LeaseObserver.
func (f LeaseFuncs) WorkerStarted(worker int) {
	if f.OnWorkerStart != nil {
		f.OnWorkerStart(worker)
	}
}

// WorkerExited implements LeaseObserver.
func (f LeaseFuncs) WorkerExited(worker int, reason string) {
	if f.OnWorkerExit != nil {
		f.OnWorkerExit(worker, reason)
	}
}
