// Package harness is the shared trial-runner subsystem behind the
// experiment tables (cmd/experiments), the benchmarks, and the spec
// executor (internal/spec) that `radiobfs run`, `run -dist` and `serve`
// drive.
//
// The paper's claims — Theorem 4.1's sub-polynomial energy, the §5 diameter
// and lower-bound trade-offs — are statements about distributions over
// random seeds and graph families, so every quantitative result in this
// repository is some fold over many independent simulation trials. The
// harness makes that fold declarative:
//
//   - a Scenario names a workload: a list of graph Instances (family ×
//     size × search radius), a trial count per instance, a cost model, and
//     an algorithm — either a registered repro.Algorithm resolved by name
//     (Recursive-BFS, the Decay baseline, the §5 diameter approximations,
//     gradient verification, the §1 Poll/Alarm applications, plus anything
//     external packages Register) or a custom TrialCtxFunc (the table
//     workloads of internal/workloads);
//   - a Runner expands scenarios into independent trials and executes them
//     on a worker pool. Every trial builds its own graph and network from a
//     seed derived with rng.Derive from (root, scenario, family, n,
//     maxDist, trial index), so results are bit-identical regardless of
//     worker count or scheduling. Parallelism is between trials only: every
//     trial, whatever its size, runs its physics sequentially on one worker,
//     so the worker count also bounds how many big instances are resident
//     at once;
//   - Aggregate folds per-trial Metrics into per-cell summaries
//     (mean/stddev/min/quantiles/max via the streaming accumulators in
//     internal/stats) and writes text tables, CSV, or JSON.
//
// Custom TrialCtxFuncs report everything they measure through Metrics:
// trials of one scenario run concurrently, possibly in other processes, so
// a result captured in a closure would reach neither the artifacts nor a
// distributed run's coordinator.
//
// # Worker contexts
//
// Every worker owns one Context — a pool of trial-invariant heavy state: a
// radio engine (reset between trials), Decay scratch buffers, and a cache
// of deterministic workload graphs. Built-in workloads draw from it
// automatically; a custom Scenario.RunCtx receives it as its first argument
// and may ignore it. The contract for RunCtx implementations:
//
//   - anything obtained from the Context (engine, scratch, cached graphs)
//     is valid only until the trial function returns — never retain it in
//     results or closures;
//   - cached graphs are shared and must be treated as immutable;
//   - all randomness must still derive from Trial.Seed, so that a trial's
//     outcome is a pure function of the Trial value — this is what keeps
//     aggregated output byte-identical at any worker count, pooled or not.
package harness

import (
	"context"
	"fmt"
	"math"

	"repro"
	"repro/internal/core"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Algo names a registered repro.Algorithm (or one of its aliases); the empty
// string selects Recursive-BFS. The harness has no algorithm knowledge of
// its own: any entry visible through repro.Get — including ones external
// packages Register — is a valid selector.
type Algo string

// Selectors for the built-in registry entries, kept as constants so
// scenarios are typo-checked at compile time.
const (
	// AlgoRecursive runs the paper's Recursive-BFS (§4, Theorem 4.1) and
	// verifies the labels against a reference BFS.
	AlgoRecursive Algo = "recursive"
	// AlgoDecay runs the everyone-awake Decay BFS baseline on the physical
	// radio channel (Θ(D log² n) energy).
	AlgoDecay Algo = "decay"
	// AlgoDiam2 runs the 2-approximate diameter of Theorem 5.3.
	AlgoDiam2 Algo = "diam2"
	// AlgoDiam32 runs the nearly-3/2-approximate diameter of Theorem 5.4.
	AlgoDiam32 Algo = "diam32"
	// AlgoVerify runs Recursive-BFS and then the O(1)-energy gradient
	// verification sweep over the resulting labels.
	AlgoVerify Algo = "verify"
	// AlgoPoll runs the §1 duty-cycled dissemination over reference BFS
	// labels with polling period Scenario.Period.
	AlgoPoll Algo = "poll"
	// AlgoAlarm runs the full §1 alarm round trip (gradient ascent to the
	// source, then dissemination) from the last vertex.
	AlgoAlarm Algo = "alarm"
)

// Instance is one workload graph: a named family at a given size, searched
// to MaxDist hops (0 means n). For scenarios with a custom RunCtx the
// fields are labels carried into the Trial; built-in algorithms resolve Family via
// graph.Named.
type Instance struct {
	Family  string `json:"family"`
	N       int    `json:"n"`
	MaxDist int    `json:"maxDist,omitempty"`
}

// Cross builds the instance cross product families × sizes. maxDist may be
// nil, in which case every instance searches to its full size.
func Cross(families []string, sizes []int, maxDist func(family string, n int) int) []Instance {
	out := make([]Instance, 0, len(families)*len(sizes))
	for _, f := range families {
		for _, n := range sizes {
			md := 0
			if maxDist != nil {
				md = maxDist(f, n)
			}
			out = append(out, Instance{Family: f, N: n, MaxDist: md})
		}
	}
	return out
}

// Metrics is the flat numeric outcome of one trial. Keys are metric names;
// a trial may omit a key (the Aggregator then averages over the trials that
// reported it — useful for conditional measurements such as
// energy-when-heard).
type Metrics map[string]float64

// Trial identifies one unit of work: an instance of a scenario plus a trial
// index and the derived seeds that make it reproducible in isolation.
type Trial struct {
	Scenario string `json:"scenario"`
	Instance
	Index int    `json:"trial"`
	Seed  uint64 `json:"seed"`
	// GraphSeed is the seed registry workloads build their instance graph
	// from. By default it derives from Seed (independent topology per
	// trial); under Scenario.PinGraphs it derives from the root seed alone,
	// so every trial — across scenarios of the same run — samples the same
	// seeded-family graph and only the protocol randomness varies.
	GraphSeed uint64 `json:"graphSeed"`
	// Root is the root seed of the run the trial belongs to, for workloads
	// that draw one graph per run rather than per trial. It is not
	// persisted: a trials.jsonl line carries Seed and GraphSeed.
	Root uint64 `json:"-"`
}

// TrialCtxFunc is a custom workload: it receives the executing worker's
// Context pool and a fully-identified Trial, and returns the trial's
// metrics. It must derive all randomness from Trial.Seed. See the package
// documentation for the Context reuse contract.
type TrialCtxFunc func(ctx *Context, t Trial) (Metrics, error)

// Scenario declares a workload for the Runner. Zero values mean: one trial
// per instance, unit cost model, polling period 4, the paper's automatic
// Recursive-BFS parameters.
type Scenario struct {
	// Name labels the scenario in results and seeds its trials; two
	// scenarios with different names draw independent randomness even on
	// identical instances.
	Name string
	// Instances lists the workload graphs (see Cross for grids).
	Instances []Instance
	// Trials is the number of independently-seeded repetitions per
	// instance (default 1).
	Trials int
	// Algo names the registered repro.Algorithm to run ("" = Recursive-BFS);
	// ignored when RunCtx is set.
	Algo Algo
	// Cost selects the cost model for registry workloads.
	Cost repro.CostModel
	// Period is the polling period for AlgoPoll/AlgoAlarm (default 4).
	Period int
	// Passes is the Decay repetition count for AlgoDecay (default ⌈log₂ n⌉).
	Passes int
	// PinGraphs derives every trial's GraphSeed from the root seed instead
	// of the trial seed: seeded-family graphs then depend only on (root,
	// family, n), so scenarios of one run form apples-to-apples pairings on
	// identical topologies and repeated trials sample only the protocol's
	// randomness. Deterministic families are unaffected.
	PinGraphs bool
	// Params overrides the Recursive-BFS parameters for registry workloads.
	Params *core.Params
	// Ctx, when non-nil, cancels the scenario: trials poll it at phase
	// boundaries and stop within one phase, reporting the context error.
	Ctx context.Context
	// Observer, when non-nil, streams progress events from every trial's
	// round loops. Trials of one scenario run concurrently, so it must be
	// safe for concurrent use.
	Observer repro.Observer
	// RunCtx, when set, replaces the registry workload entirely.
	RunCtx TrialCtxFunc
}

// TrialCount returns the effective trials-per-instance (minimum 1).
func (sc *Scenario) TrialCount() int {
	if sc.Trials < 1 {
		return 1
	}
	return sc.Trials
}

// strTag hashes a string into an rng.Derive tag (FNV-1a, 64-bit).
func strTag(s string) uint64 {
	h := uint64(0xcbf29ce484222325)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 0x100000001b3
	}
	return h
}

// TrialFor builds the trial for one (instance, index) pair of a scenario
// under the given root seed. The seed depends only on the scenario name,
// the instance coordinates, and the index — never on list positions or
// worker scheduling — so adding instances or trials leaves existing seeds
// unchanged.
func TrialFor(sc *Scenario, inst Instance, index int, root uint64) Trial {
	if inst.MaxDist <= 0 {
		inst.MaxDist = inst.N
	}
	seed := rng.Derive(root,
		strTag(sc.Name), strTag(inst.Family),
		uint64(inst.N), uint64(inst.MaxDist), uint64(index))
	gseed := rng.Derive(seed, 0x6ea9)
	if sc.PinGraphs {
		gseed = rng.Derive(root, 0x6ea9)
	}
	return Trial{Scenario: sc.Name, Instance: inst, Index: index, Seed: seed, GraphSeed: gseed, Root: root}
}

// Expand lists every trial of a scenario in canonical order (instances in
// declaration order, trial indices ascending).
func Expand(sc *Scenario, root uint64) []Trial {
	out := make([]Trial, 0, len(sc.Instances)*sc.TrialCount())
	for _, inst := range sc.Instances {
		for i := 0; i < sc.TrialCount(); i++ {
			out = append(out, TrialFor(sc, inst, i, root))
		}
	}
	return out
}

// Result is the outcome of one executed trial.
type Result struct {
	Trial
	Metrics Metrics `json:"metrics,omitempty"`
	Err     string  `json:"err,omitempty"`
}

// Execute runs a single trial synchronously on a fresh Context. It never
// panics on workload errors: failures are reported through Result.Err so
// one bad trial cannot sink a sweep.
func Execute(sc *Scenario, t Trial) Result {
	return ExecuteCtx(NewContext(), sc, t)
}

// ExecuteCtx runs a single trial synchronously against the given worker
// Context, reusing its pooled engine, scratch and graph cache. Results are
// identical to Execute's for any context history.
//
// A panic inside the trial fails that trial alone: its Result.Err is
// "panic: " and the panic value, with no stack or address so artifacts stay
// deterministic. The panic may have left the pooled engine, Decay scratch
// or graph builder half-written, so ctx is replaced by a fresh context over
// the same shared graphs before the next trial can see it.
func ExecuteCtx(ctx *Context, sc *Scenario, t Trial) (res Result) {
	defer func() {
		if r := recover(); r != nil {
			*ctx = *newContextShared(ctx.shared)
			res = Result{Trial: t, Err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	var m Metrics
	var err error
	if sc.RunCtx != nil {
		m, err = sc.RunCtx(ctx, t)
	} else {
		m, err = runBuiltin(ctx, sc, t)
	}
	res = Result{Trial: t, Metrics: m}
	if err != nil {
		res.Err = err.Error()
	}
	return res
}

// BoolMetric encodes a predicate as a 0/1 metric so aggregation yields
// rates (mean = success fraction, min = "held on every trial").
func BoolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// runBuiltin executes one registry workload: it resolves Scenario.Algo
// through repro.Get, builds the trial's network over pooled worker state,
// runs the algorithm with the scenario's context and observer, asks the
// entry for its ground-truth checks, and flattens the structured Result into
// Metrics. The harness itself carries no per-algorithm knowledge — a newly
// registered repro.Algorithm is immediately sweepable by name.
//
// Every trial derives its graph and network from the trial seed, so trials
// are independent samples of (graph, protocol randomness); heavy state
// (graphs of deterministic families, the radio engine, Decay scratch) is
// drawn from the worker's Context pool.
func runBuiltin(ctx *Context, sc *Scenario, t Trial) (Metrics, error) {
	name := string(sc.Algo)
	if name == "" {
		name = string(AlgoRecursive)
	}
	alg, err := repro.Get(name)
	if err != nil {
		return nil, err
	}
	gseed := t.GraphSeed
	if gseed == 0 {
		// Hand-built Trial (not from TrialFor): fall back to the historical
		// per-trial derivation.
		gseed = rng.Derive(t.Seed, 0x6ea9)
	}
	g, err := ctx.Graph(t.Family, t.N, gseed)
	if err != nil {
		return nil, err
	}
	// The engine is handed over lazily: unit-cost trials of engine-free
	// algorithms never pay the pooled engine's O(n) reset.
	opts := []repro.Option{
		repro.WithEngineProvider(func() *radio.Engine { return ctx.Engine(g) }),
		repro.WithDecayScratch(ctx.DecayScratch()),
	}
	if sc.Cost == repro.CostPhysical {
		opts = append(opts, repro.WithCostModel(repro.CostPhysical))
	}
	if sc.Params != nil {
		opts = append(opts, repro.WithParams(*sc.Params))
	}
	if sc.Passes > 0 {
		opts = append(opts, repro.WithDecayPasses(sc.Passes))
	}
	nw, err := repro.NewNetworkE(g, t.Seed, opts...)
	if err != nil {
		return nil, err
	}
	runCtx := sc.Ctx
	if runCtx == nil {
		runCtx = context.Background()
	}
	req := repro.Request{
		MaxDist:  t.MaxDist,
		Period:   sc.period(),
		Origin:   int32(g.N() - 1),
		Observer: sc.Observer,
	}
	res, err := alg.Run(runCtx, nw, req)
	if err != nil {
		return nil, err
	}
	alg.Check(nw, req, res)

	m := make(Metrics, len(res.Values)+6)
	for k, v := range res.Values {
		m[k] = v
	}
	// Cost metrics follow the meters the run actually moved: LB-unit meters
	// for anything that ran on the Net abstraction, physical-slot meters for
	// anything that touched the radio engine (CostPhysical runs and the
	// Decay baseline in either cost model).
	if res.Cost.LBTime > 0 {
		m["maxLB"] = float64(res.Cost.MaxLBEnergy)
		m["totalLB"] = float64(res.Cost.TotalLBEnergy)
		m["timeLB"] = float64(res.Cost.LBTime)
	}
	if res.Cost.PhysRounds > 0 {
		m["physMax"] = float64(res.Cost.MaxPhysEnergy)
		m["physRounds"] = float64(res.Cost.PhysRounds)
		m["msgViolations"] = float64(res.Cost.MsgViolations)
	}
	return m, nil
}

func (sc *Scenario) period() int {
	if sc.Period < 1 {
		return 4
	}
	return sc.Period
}

// Get returns a metric by name from a result, or NaN when absent (which the
// Aggregator and formatters treat as "not reported").
func (r *Result) Get(name string) float64 {
	if v, ok := r.Metrics[name]; ok {
		return v
	}
	return math.NaN()
}
