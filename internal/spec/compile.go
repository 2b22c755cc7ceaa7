package spec

import (
	"context"
	"fmt"

	"repro"
	"repro/internal/harness"
)

// CustomFunc builds the trial function for one scenario that names a custom
// workload; it receives the scenario so it can read its free-form Args. It
// is how cmd/experiments attaches its instrumented measurement code to the
// grids declared in the checked-in spec files.
type CustomFunc func(sc *Scenario) (harness.TrialCtxFunc, error)

// Options configures compilation.
type Options struct {
	// Quick applies each scenario's reduced-size overlay (CI-scale runs).
	Quick bool
	// Ctx, when non-nil, cancels compiled scenarios at phase boundaries.
	Ctx context.Context
	// Observer, when non-nil, streams progress events from every trial; it
	// must be safe for concurrent use.
	Observer repro.Observer
	// Custom supplies the named custom workloads the file may reference.
	// Compiling a spec whose Custom name has no entry here is an error —
	// `radiobfs run` passes none and therefore executes registry-only specs.
	Custom map[string]CustomFunc
	// OnTrial, when non-nil, is invoked by ExecuteFile's runner after each
	// trial settles (see harness.Runner.OnTrial). Trials run concurrently,
	// so it must be safe for concurrent use; it observes results, never
	// changes them.
	OnTrial func(harness.Result)
}

// Compile lowers a validated file onto harness scenarios, in declaration
// order. It re-runs Validate first, so callers cannot compile a spec that
// would misname an algorithm, family, or parameter.
func Compile(f *File, opts Options) ([]*harness.Scenario, error) {
	if err := f.Validate(); err != nil {
		return nil, err
	}
	out := make([]*harness.Scenario, 0, len(f.Scenarios))
	for i := range f.Scenarios {
		sc, err := compileScenario(f, &f.Scenarios[i], opts)
		if err != nil {
			return nil, err
		}
		out = append(out, sc)
	}
	return out, nil
}

func compileScenario(f *File, sc *Scenario, opts Options) (*harness.Scenario, error) {
	hs := &harness.Scenario{
		Name:      sc.Name,
		Instances: sc.expandInstances(opts.Quick),
		Trials:    sc.trialCount(opts.Quick),
		Ctx:       opts.Ctx,
		Observer:  opts.Observer,
	}
	if sc.Custom != "" {
		build, ok := opts.Custom[sc.Custom]
		if !ok {
			return nil, fmt.Errorf("spec %s, scenario %s: custom workload %q is not provided by this driver — `radiobfs run` executes registry workloads only; custom workloads run through cmd/experiments", f.Name, sc.Name, sc.Custom)
		}
		run, err := build(sc)
		if err != nil {
			return nil, fmt.Errorf("spec %s, scenario %s: %w", f.Name, sc.Name, err)
		}
		hs.RunCtx = run
		return hs, nil
	}
	hs.Algo = harness.Algo(sc.Algorithm)
	hs.PinGraphs = sc.PinGraphs
	if sc.Cost == "physical" {
		hs.Cost = repro.CostPhysical
	}
	hs.Period = int(sc.Params["period"])
	hs.Passes = int(sc.Params["passes"])
	if p, ok := coreParams(sc.Params); ok {
		hs.Params = &p
	}
	return hs, nil
}

// expandInstances resolves the scenario's effective instance list: the
// quick overlay's workload graphs when asked for and declared (replacing
// the full-size set wholesale), else the full-size declaration, with the
// grid cross product appended and grid search radii derived from
// MaxDistFrac.
func (sc *Scenario) expandInstances(quick bool) []harness.Instance {
	insts, grid := sc.Instances, sc.Grid
	if quick && sc.Quick != nil && (len(sc.Quick.Instances) > 0 || sc.Quick.Grid != nil) {
		insts, grid = sc.Quick.Instances, sc.Quick.Grid
	}
	out := append([]harness.Instance(nil), insts...)
	if grid != nil {
		var maxDist func(string, int) int
		if grid.MaxDistFrac > 0 {
			frac := grid.MaxDistFrac
			maxDist = func(_ string, n int) int {
				d := int(float64(n) * frac)
				if d < 1 {
					d = 1
				}
				return d
			}
		}
		out = append(out, harness.Cross(grid.Families, grid.Sizes, maxDist)...)
	}
	return out
}

func (sc *Scenario) trialCount(quick bool) int {
	if quick && sc.Quick != nil && sc.Quick.Trials > 0 {
		return sc.Quick.Trials
	}
	return sc.Trials
}
