// Package workloads is the table of measurement workloads that spec files
// name with "custom": the instrumented trials behind the paper tables that
// no registered repro.Algorithm covers — Lemma 2.4's Decay Local-Broadcast
// (E2), Lemmas 2.1–2.5 (E3, E4), Lemmas 3.1–3.2 (E5), Claims 1–2 (E7),
// Invariant 4.1 (E8), Figure 3 (E9) and Theorems 5.1–5.4 with the §1
// dissemination (E10, E11, E13, E14).
//
// internal/spec resolves "custom" names here the way it resolves
// "algorithm" names through repro.Get, so every driver that compiles a spec
// — `radiobfs run`, `run -dist` and its workers, `serve` — runs these
// workloads too. The table is static: there is no registration.
//
// A workload reports everything it measures as trial metrics, including
// the structured series that a paper table renders (E4's tail and ratio
// tables, E9's Figure 3 trace), so its results persist in the spec
// artifacts and a trial's outcome is a pure function of its Trial value.
// Workloads that draw one graph for a whole run (E3, E8, E13, E14) seed it
// from the trial's Root.
package workloads

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/harness"
)

// Factory builds the trial function of one spec scenario from the
// scenario's free-form args, rejecting args it cannot use.
type Factory func(args map[string]float64) (harness.TrialCtxFunc, error)

// table maps each workload name to its factory.
var table = map[string]Factory{
	"e2/local-broadcast":   localBroadcast,
	"e3/clustering":        clustering,
	"e4/ideal-mpx":         idealMPX,
	"e5/vnet-casts":        vnetCasts,
	"e7/participation":     participation,
	"e8/invariant":         invariant,
	"e9/figure3":           figure3,
	"e10/budgeted-probe":   budgetedProbe,
	"e11/set-disjointness": setDisjointness,
	"e13/radio":            diam32Radio,
	"e13/mirror":           diam32Mirror,
	"e14/dissemination":    dissemination,
}

// Get returns the named workload's factory. An unknown name is an error
// that lists the known ones.
func Get(name string) (Factory, error) {
	if f, ok := table[name]; ok {
		return f, nil
	}
	return nil, fmt.Errorf("unknown custom workload %q (known: %s)", name, strings.Join(Names(), ", "))
}

// Names lists the workload names, sorted.
func Names() []string {
	names := make([]string, 0, len(table))
	for name := range table {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// intArg reads one required positive integer argument; fractional values
// are an error, never a silent truncation.
func intArg(args map[string]float64, name string) (int, error) {
	v, ok := args[name]
	if !ok || v < 1 || v != float64(int(v)) {
		return 0, fmt.Errorf("args.%s = %g, must be a positive integer", name, v)
	}
	return int(v), nil
}

// coreArgs reads the Recursive-BFS stack parameters (invBeta, depth, w,
// alpha); fractional values are an error, and the assembled set is
// range-checked.
func coreArgs(args map[string]float64) (core.Params, error) {
	for _, name := range []string{"invBeta", "depth", "w", "alpha"} {
		if v, ok := args[name]; ok && v != float64(int(v)) {
			return core.Params{}, fmt.Errorf("args.%s = %g, must be an integer", name, v)
		}
	}
	p := core.Params{
		InvBeta: int(args["invBeta"]),
		Depth:   int(args["depth"]),
		W:       int(args["w"]),
		Alpha:   int(args["alpha"]),
	}
	return p, p.Validate()
}
