package spec

import (
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
	"strings"

	"repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/workloads"
)

// File is one parsed experiment-spec file: a named group of scenarios that
// execute together and persist into one artifact directory.
type File struct {
	// Name identifies the experiment and names its artifact directory; it
	// must be non-empty and filesystem-safe (letters, digits, ".", "_", "-").
	Name string `json:"name"`
	// Doc is a one-line description carried into the manifest.
	Doc string `json:"doc,omitempty"`
	// Seed is the root seed every trial seed derives from (0 = the default
	// root, 1). Drivers may override it (e.g. `radiobfs run -seed`).
	Seed uint64 `json:"seed,omitempty"`
	// Columns optionally restricts which metrics the aggregated CSV and
	// Markdown artifacts carry; empty means every reported metric.
	Columns []string `json:"columns,omitempty"`
	// Scenarios lists the workloads; at least one is required.
	Scenarios []Scenario `json:"scenarios"`
}

// Scenario declares one workload of a spec file. Exactly one of Algorithm
// and Custom must be set.
type Scenario struct {
	// Name labels the scenario in results and seeds its trials (see
	// harness.TrialFor); it must be unique within the file.
	Name string `json:"name"`
	// Algorithm names a registered repro.Algorithm (or alias).
	Algorithm string `json:"algorithm,omitempty"`
	// Custom names a table workload of internal/workloads — measurement
	// code that is not a registry entry (the instrumented E-series trials).
	Custom string `json:"custom,omitempty"`
	// Params overrides registry parameters by name. Known keys: "period"
	// and "passes" (validated against the algorithm's ParamSpecs), and the
	// Recursive-BFS stack parameters "invBeta", "depth", "w", "alpha"
	// (validated by core.Params.Validate; giving any requires invBeta, w
	// and alpha). All values must be integers.
	Params map[string]float64 `json:"params,omitempty"`
	// Args is the free-form argument map of a custom workload (e.g. the
	// probe budget of E10); the workload's factory interprets it. Only
	// valid together with Custom.
	Args map[string]float64 `json:"args,omitempty"`
	// Cost selects the cost model: "unit" (default) or "physical". Custom
	// workloads build their own networks, so cost must be left empty there.
	Cost string `json:"cost,omitempty"`
	// PinGraphs derives seeded-family graphs from the root seed alone, so
	// every scenario and trial of the run uses identical topologies
	// (apples-to-apples pairings); by default each trial samples a fresh
	// topology. Registry workloads only.
	PinGraphs bool `json:"pinGraphs,omitempty"`
	// Trials is the number of independently-seeded repetitions per instance
	// (default 1).
	Trials int `json:"trials,omitempty"`
	// Instances lists explicit workload graphs; Grid appends a cross
	// product. At least one instance must result.
	Instances []harness.Instance `json:"instances,omitempty"`
	// Grid expands families × sizes into additional instances.
	Grid *Grid `json:"grid,omitempty"`
	// Quick is the reduced-size overlay applied when compiling with
	// Options.Quick (CI-scale runs).
	Quick *Overlay `json:"quick,omitempty"`
}

// Grid is a families × sizes instance cross product.
type Grid struct {
	Families []string `json:"families"`
	Sizes    []int    `json:"sizes"`
	// MaxDistFrac sets every instance's search radius to
	// max(1, ⌊n·MaxDistFrac⌋); 0 means the full graph.
	MaxDistFrac float64 `json:"maxDistFrac,omitempty"`
}

// Overlay is the quick-mode replacement set. A non-zero Trials replaces the
// scenario's trial count; when the overlay declares any workload graphs
// (Instances and/or Grid), they replace the scenario's full-size instance
// set wholesale — the quick grid is described completely, never merged with
// the full-size one.
type Overlay struct {
	Trials    int                `json:"trials,omitempty"`
	Instances []harness.Instance `json:"instances,omitempty"`
	Grid      *Grid              `json:"grid,omitempty"`
}

// RootSeed returns the file's effective root seed (1 when unset), the seed
// `radiobfs run` and ExecuteFile use unless overridden.
func (f *File) RootSeed() uint64 {
	if f.Seed == 0 {
		return 1
	}
	return f.Seed
}

// Encode renders the file back to JSON. Parse(Encode(f)) reproduces an
// identical File — every spec field round-trips through encoding/json and
// Parse's strictness only rejects fields Encode never emits — which is what
// lets the distributed coordinator (internal/dist) ship a parsed spec to
// worker processes and trust both sides to expand the identical trial list.
func (f *File) Encode() ([]byte, error) {
	return json.Marshal(f)
}

// Parse decodes one spec file. Decoding is strict: unknown fields are
// rejected, so typos in scenario files fail loudly instead of silently
// running a default.
func Parse(r io.Reader) (*File, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	f := new(File)
	if err := dec.Decode(f); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return nil, fmt.Errorf("spec: trailing data after the spec object")
	}
	return f, nil
}

// ParseFile reads and parses the spec file at path.
func ParseFile(path string) (*File, error) {
	r, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	f, err := Parse(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// ParseFS parses the named spec file from fsys (e.g. the embedded
// scenarios.FS library).
func ParseFS(fsys fs.FS, name string) (*File, error) {
	r, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	f, err := Parse(r)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	return f, nil
}

// registryParams are the Params keys understood for registry workloads.
// period and passes map onto harness.Scenario fields and are additionally
// checked against the algorithm's own ParamSpecs; the rest form the
// Recursive-BFS core.Params override.
var registryParams = []string{"alpha", "depth", "invBeta", "passes", "period", "w"}

// Validate checks the file against the live registries: algorithm names
// resolve through repro.Get and custom names through workloads.Get, whose
// factories accept the scenario's args; workload families of registry
// scenarios exist in graph.FamilyNames, parameter names and values are
// known and well-formed, and every scenario expands to at least one
// instance. Custom workloads skip family validation (their Family/N/MaxDist
// fields are labels the workload interprets, e.g. the constructed K_n−e
// and set-disjointness graphs of the §5 experiments).
func (f *File) Validate() error {
	if f.Name == "" {
		return fmt.Errorf("spec: missing experiment name")
	}
	if !safeName(f.Name) {
		return fmt.Errorf("spec: experiment name %q is not filesystem-safe (allowed: letters, digits, '.', '_', '-')", f.Name)
	}
	if len(f.Scenarios) == 0 {
		return fmt.Errorf("spec %s: no scenarios", f.Name)
	}
	for _, c := range f.Columns {
		if strings.TrimSpace(c) == "" {
			return fmt.Errorf("spec %s: empty column name", f.Name)
		}
	}
	seen := map[string]bool{}
	for i := range f.Scenarios {
		sc := &f.Scenarios[i]
		if sc.Name == "" {
			return fmt.Errorf("spec %s: scenario %d has no name", f.Name, i)
		}
		if seen[sc.Name] {
			return fmt.Errorf("spec %s: duplicate scenario name %q", f.Name, sc.Name)
		}
		seen[sc.Name] = true
		if err := f.validateScenario(sc); err != nil {
			return err
		}
	}
	return nil
}

func (f *File) validateScenario(sc *Scenario) error {
	where := fmt.Sprintf("spec %s, scenario %s", f.Name, sc.Name)
	switch {
	case sc.Algorithm != "" && sc.Custom != "":
		return fmt.Errorf("%s: both algorithm %q and custom workload %q set — pick one", where, sc.Algorithm, sc.Custom)
	case sc.Algorithm == "" && sc.Custom == "":
		return fmt.Errorf("%s: needs an algorithm (one of: %s) or a custom workload", where, strings.Join(repro.AlgorithmNames(), ", "))
	}
	if sc.Trials < 0 {
		return fmt.Errorf("%s: negative trial count %d", where, sc.Trials)
	}
	if sc.Custom != "" {
		if len(sc.Params) > 0 {
			return fmt.Errorf("%s: custom workloads take free-form \"args\", not registry \"params\"", where)
		}
		if sc.Cost != "" {
			return fmt.Errorf("%s: custom workloads build their own networks; \"cost\" (%q) is not applied — drop it", where, sc.Cost)
		}
		if sc.PinGraphs {
			return fmt.Errorf("%s: \"pinGraphs\" only affects registry workloads; custom workloads seed their own graphs", where)
		}
		build, err := workloads.Get(sc.Custom)
		if err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		if _, err := build(sc.Args); err != nil {
			return fmt.Errorf("%s: %w", where, err)
		}
		return f.validateInstances(sc, where)
	}
	if len(sc.Args) > 0 {
		return fmt.Errorf("%s: \"args\" is reserved for custom workloads; registry algorithm %q takes \"params\"", where, sc.Algorithm)
	}
	alg, err := repro.Get(sc.Algorithm)
	if err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	switch sc.Cost {
	case "", "unit", "physical":
	default:
		return fmt.Errorf("%s: unknown cost model %q (known: unit, physical)", where, sc.Cost)
	}
	if err := validateParams(sc, alg); err != nil {
		return fmt.Errorf("%s: %w", where, err)
	}
	return f.validateInstances(sc, where)
}

func (f *File) validateInstances(sc *Scenario, where string) error {
	check := func(insts []harness.Instance, grid *Grid) error {
		for _, inst := range insts {
			if inst.N < 1 {
				return fmt.Errorf("%s: instance size %d, must be >= 1", where, inst.N)
			}
			if inst.MaxDist < 0 {
				return fmt.Errorf("%s: negative maxDist %d", where, inst.MaxDist)
			}
			if sc.Algorithm != "" {
				if err := knownFamily(inst.Family); err != nil {
					return fmt.Errorf("%s: %w", where, err)
				}
			}
		}
		if grid != nil {
			if len(grid.Families) == 0 || len(grid.Sizes) == 0 {
				return fmt.Errorf("%s: grid needs at least one family and one size", where)
			}
			if grid.MaxDistFrac < 0 || grid.MaxDistFrac > 1 {
				return fmt.Errorf("%s: maxDistFrac %g outside [0, 1]", where, grid.MaxDistFrac)
			}
			for _, n := range grid.Sizes {
				if n < 1 {
					return fmt.Errorf("%s: grid size %d, must be >= 1", where, n)
				}
			}
			if sc.Algorithm != "" {
				for _, fam := range grid.Families {
					if err := knownFamily(fam); err != nil {
						return fmt.Errorf("%s: %w", where, err)
					}
				}
			}
		}
		if len(insts) == 0 && grid == nil {
			return fmt.Errorf("%s: no instances (give \"instances\", a \"grid\", or both)", where)
		}
		return nil
	}
	if err := check(sc.Instances, sc.Grid); err != nil {
		return err
	}
	if q := sc.Quick; q != nil {
		if q.Trials < 0 {
			return fmt.Errorf("%s: negative quick trial count %d", where, q.Trials)
		}
		if len(q.Instances) > 0 || q.Grid != nil {
			if err := check(q.Instances, q.Grid); err != nil {
				return err
			}
		}
	}
	return nil
}

// knownFamily rejects family names graph.Named would not accept.
func knownFamily(name string) error {
	names := graph.FamilyNames()
	for _, known := range names {
		if name == known {
			return nil
		}
	}
	return fmt.Errorf("unknown graph family %q (known: %s)", name, strings.Join(names, ", "))
}

// validateParams checks registry parameter names and values against the
// resolved algorithm and cost model.
func validateParams(sc *Scenario, alg repro.Algorithm) error {
	specParams := map[string]bool{}
	for _, p := range alg.Params() {
		specParams[p.Name] = true
	}
	for _, name := range sortedParamNames(sc.Params) {
		v := sc.Params[name]
		if v != math.Trunc(v) || math.IsInf(v, 0) || math.IsNaN(v) {
			return fmt.Errorf("param %s = %g, must be an integer", name, v)
		}
		switch name {
		case "period":
			if !specParams[name] {
				return fmt.Errorf("param %q is not read by algorithm %q (its params: %s)", name, alg.Name(), paramSpecNames(alg))
			}
			if v < 1 {
				return fmt.Errorf("param %s = %g, must be >= 1", name, v)
			}
		case "passes":
			// Decay repetitions matter to any algorithm whose Local-
			// Broadcasts run on the physical channel, not just the ones
			// whose ParamSpecs name the knob.
			if !specParams[name] && sc.Cost != "physical" {
				return fmt.Errorf("param \"passes\" needs cost \"physical\" or an algorithm that reads it (algorithm %q params: %s)", alg.Name(), paramSpecNames(alg))
			}
			if v < 1 {
				return fmt.Errorf("param %s = %g, must be >= 1", name, v)
			}
		case "invBeta", "depth", "w", "alpha":
			// Cross-field constraints are checked below once all are seen.
		default:
			return fmt.Errorf("unknown param %q (known: %s)", name, strings.Join(registryParams, ", "))
		}
	}
	if p, ok := coreParams(sc.Params); ok {
		if err := p.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// coreParams assembles a core.Params override from the spec params; ok is
// false when none of the stack parameters are present. Partial sets
// surface through core.Params.Validate (zero InvBeta/W/Alpha are invalid).
func coreParams(params map[string]float64) (core.Params, bool) {
	_, a := params["invBeta"]
	_, b := params["depth"]
	_, c := params["w"]
	_, d := params["alpha"]
	if !a && !b && !c && !d {
		return core.Params{}, false
	}
	return core.Params{
		InvBeta: int(params["invBeta"]),
		Depth:   int(params["depth"]),
		W:       int(params["w"]),
		Alpha:   int(params["alpha"]),
	}, true
}

func sortedParamNames(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func paramSpecNames(alg repro.Algorithm) string {
	ps := alg.Params()
	if len(ps) == 0 {
		return "none"
	}
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return strings.Join(names, ", ")
}

func safeName(s string) bool {
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return s != "" && s != "." && s != ".."
}
