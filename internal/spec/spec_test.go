package spec

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestParseValidateRoundTrip pins the full feature surface: the exhaustive
// testdata spec parses, validates, survives a marshal → reparse round trip
// unchanged, and compiles to the golden harness-scenario shapes in both
// full and quick modes.
func TestParseValidateRoundTrip(t *testing.T) {
	f, err := ParseFile("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := f.RootSeed(), uint64(9); got != want {
		t.Fatalf("RootSeed = %d, want %d", got, want)
	}

	// Round trip: the parsed representation is lossless under the strict
	// decoder, so specs can be programmatically rewritten.
	blob, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("reparse after marshal: %v", err)
	}
	if !reflect.DeepEqual(f, back) {
		t.Fatalf("round trip changed the spec:\n before %+v\n after  %+v", f, back)
	}

	for _, mode := range []struct {
		name   string
		quick  bool
		golden string
	}{
		{"full", false, "testdata/full_compiled.golden"},
		{"quick", true, "testdata/full_compiled_quick.golden"},
	} {
		scs, err := Compile(f, Options{Quick: mode.quick})
		if err != nil {
			t.Fatalf("%s compile: %v", mode.name, err)
		}
		got := compiledSummary(t, scs)
		if *update {
			if err := os.WriteFile(mode.golden, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(mode.golden)
		if err != nil {
			t.Fatalf("%v (run with -update to record)", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s compile mismatch with %s:\n got %s\nwant %s", mode.name, mode.golden, got, want)
		}
	}
}

// compiledSummary renders the JSON-comparable projection of compiled
// scenarios (function fields excluded, custom presence as a flag).
func compiledSummary(t *testing.T, scs []*harness.Scenario) []byte {
	t.Helper()
	type row struct {
		Name      string             `json:"name"`
		Algo      string             `json:"algo,omitempty"`
		Custom    bool               `json:"custom,omitempty"`
		Cost      int                `json:"cost"`
		PinGraphs bool               `json:"pinGraphs,omitempty"`
		Trials    int                `json:"trials"`
		Period    int                `json:"period,omitempty"`
		Passes    int                `json:"passes,omitempty"`
		Params    string             `json:"params,omitempty"`
		Instances []harness.Instance `json:"instances"`
	}
	rows := make([]row, 0, len(scs))
	for _, sc := range scs {
		r := row{
			Name: sc.Name, Algo: string(sc.Algo), Custom: sc.RunCtx != nil,
			Cost: int(sc.Cost), PinGraphs: sc.PinGraphs, Trials: sc.TrialCount(),
			Period: sc.Period, Passes: sc.Passes, Instances: sc.Instances,
		}
		if sc.Params != nil {
			r.Params = sc.Params.String()
		}
		rows = append(rows, r)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rows); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRejections pins the validation error for every bad spec in
// testdata/bad: unknown algorithm / family / parameter names and the
// structural mistakes a hand-edited file is likely to make. Each message
// must mention the offending name so a failing `radiobfs run` is
// actionable.
func TestRejections(t *testing.T) {
	cases := map[string]string{
		"unknown_algo.json":        `unknown algorithm "quantum" (known: alarm, decay, diam2, diam32, poll, recursive, verify)`,
		"unknown_family.json":      `unknown graph family "moebius"`,
		"unknown_param.json":       `unknown param "gamma" (known: alpha, depth, invBeta, passes, period, w)`,
		"param_wrong_algo.json":    `param "period" is not read by algorithm "recursive"`,
		"passes_unit_cost.json":    `param "passes" needs cost "physical"`,
		"both_workloads.json":      `both algorithm "recursive" and custom workload "c/w" set`,
		"no_workload.json":         `needs an algorithm (one of: alarm, decay, diam2, diam32, poll, recursive, verify) or a custom workload`,
		"no_instances.json":        `no instances`,
		"dup_scenario.json":        `duplicate scenario name "a"`,
		"bad_cost.json":            `unknown cost model "free" (known: unit, physical)`,
		"unsafe_name.json":         `experiment name "../escape" is not filesystem-safe`,
		"args_on_registry.json":    `"args" is reserved for custom workloads`,
		"params_on_custom.json":    `custom workloads take free-form "args", not registry "params"`,
		"fractional_param.json":    `param period = 2.5, must be an integer`,
		"cost_on_custom.json":      `custom workloads build their own networks; "cost" ("physical") is not applied`,
		"pingraphs_on_custom.json": `"pinGraphs" only affects registry workloads`,
	}
	entries, err := os.ReadDir("testdata/bad")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() == "unknown_field.json" {
			continue // rejected at parse time, checked below
		}
		want, ok := cases[e.Name()]
		if !ok {
			t.Errorf("testdata/bad/%s has no expected message in this test", e.Name())
			continue
		}
		f, err := ParseFile(filepath.Join("testdata/bad", e.Name()))
		if err != nil {
			t.Errorf("%s: parse failed before validation: %v", e.Name(), err)
			continue
		}
		err = f.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted a bad spec", e.Name())
			continue
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %q does not contain %q", e.Name(), err, want)
		}
	}
	for name := range cases {
		if _, err := os.Stat(filepath.Join("testdata/bad", name)); err != nil {
			t.Errorf("expected rejection file missing: %v", err)
		}
	}

	// Typos in field names fail at parse time under the strict decoder.
	if _, err := ParseFile("testdata/bad/unknown_field.json"); err == nil ||
		!strings.Contains(err.Error(), "scenariosz") {
		t.Errorf("unknown_field.json: want a strict-decoding error naming the field, got %v", err)
	}
}

// TestCompileMissingCustom pins the error for a custom name that is not in
// the workload table: Validate rejects it, naming every known workload the
// way an unknown algorithm lists the registry, so Compile never runs it.
func TestCompileMissingCustom(t *testing.T) {
	f, err := ParseFile("testdata/full.json")
	if err != nil {
		t.Fatal(err)
	}
	f.Scenarios[2].Custom = "e10/budgeted-prob"
	want := `scenario cust: unknown custom workload "e10/budgeted-prob" (known: ` + strings.Join(workloads.Names(), ", ") + ")"
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Validate = %v, want %q", err, want)
	}
	if _, err := Compile(f, Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Compile = %v, want %q", err, want)
	}
	// A known name with args its factory cannot use fails validation too.
	f.Scenarios[2].Custom = "e10/budgeted-probe"
	f.Scenarios[2].Args = map[string]float64{"budget": 1.5}
	if err := f.Validate(); err == nil || !strings.Contains(err.Error(), "args.budget = 1.5, must be a positive integer") {
		t.Fatalf("Validate = %v, want the factory's args error", err)
	}
}
