package harness

import (
	"runtime"
	"sync"
)

// DefaultShardMinN is 2¹⁷, the instance size of the benchmark's
// scale-physics workload (perfbench sizes it from this constant). It steers
// nothing: every trial, whatever its size, runs sequentially on one worker
// of the Runner's pool, and Workers alone bounds how many big instances are
// resident at once.
const DefaultShardMinN = 1 << 17

// Runner executes scenarios on a worker pool. The zero value runs every
// trial on GOMAXPROCS workers with root seed 0; set Root to reproduce a
// specific sweep and Workers to bound parallelism (1 = sequential).
//
// Because every trial derives its seed from its own coordinates (see
// TrialFor) and results are written to position-indexed slots, Run's output
// is byte-for-byte independent of Workers and of goroutine scheduling.
//
// Trial-level parallelism is the only parallelism: each trial runs its
// physics sequentially on its worker's engine, so peak memory grows with
// Workers × the largest trial, and Workers = 1 is the low-memory setting.
type Runner struct {
	// Workers bounds concurrent trials; <= 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Root is the root seed every trial seed is derived from.
	Root uint64
	// OnTrial, when non-nil, is invoked once per trial the moment its
	// Result settles — from whichever worker goroutine ran it, so it must
	// be safe for concurrent use. Invocation order follows scheduling, not
	// slot order; the returned Result slice is unaffected (still canonical
	// slot order, byte-identical at any worker count). Drivers use it to
	// stream per-trial progress (e.g. the serving layer's trial-done SSE
	// events) without waiting for the whole sweep.
	OnTrial func(Result)
}

// Run expands the scenarios into trials, executes them all, and returns the
// results in canonical order: scenarios in argument order, instances in
// declaration order, trial indices ascending (the same slot order ExpandAll
// reports, which is what lets a distributed run merge worker results back
// into this exact layout).
func (r *Runner) Run(scenarios ...*Scenario) []Result {
	jobs := r.ExpandAll(scenarios...)
	results := make([]Result, len(jobs))
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(jobs))
	// Deterministic-family graphs, and the seeded-family graphs of
	// PinGraphs scenarios, are built once up front and shared read-only by
	// every worker and trial, so neither the construction work nor the
	// resident memory scales with the worker or trial count.
	shared := sharedGraphs(r.Root, scenarios...)
	if workers <= 1 {
		ctx := newContextShared(shared)
		for _, j := range jobs {
			results[j.Slot] = ExecuteCtx(ctx, j.Scenario, j.Trial)
			r.notify(results[j.Slot])
		}
		return results
	}
	ch := make(chan TrialRef)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One Context per worker: trials executing on this goroutine
			// share its engine, scratch and graph cache. Results stay
			// byte-identical at any worker count because a trial's outcome
			// is a pure function of its Trial value (see the package doc's
			// worker-context contract).
			ctx := newContextShared(shared)
			for j := range ch {
				results[j.Slot] = ExecuteCtx(ctx, j.Scenario, j.Trial)
				r.notify(results[j.Slot])
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()
	return results
}

// notify delivers one settled result to the OnTrial hook, if any.
func (r *Runner) notify(res Result) {
	if r.OnTrial != nil {
		r.OnTrial(res)
	}
}
