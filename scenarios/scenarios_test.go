package scenarios

import (
	"strings"
	"testing"

	"repro"
	"repro/internal/harness"
	"repro/internal/spec"
	"repro/internal/workloads"
)

// TestLibraryValidatesAndCompiles parses, validates, and compiles every
// checked-in spec file in both full and quick modes, exactly as every
// driver compiles it. Every registered algorithm and every table workload
// must be named by some spec, so each has a paper table and a pinned
// golden, and none of them runs only in tests.
func TestLibraryValidatesAndCompiles(t *testing.T) {
	names := Names()
	if len(names) < 15 {
		t.Fatalf("expected the full library, found only %d specs: %v", len(names), names)
	}
	used, algos := map[string]bool{}, map[string]bool{}
	for _, name := range names {
		f, err := Load(name)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		for i := range f.Scenarios {
			sc := &f.Scenarios[i]
			used[sc.Custom] = true
			if a, err := repro.Get(sc.Algorithm); err == nil {
				algos[a.Name()] = true
			}
		}
		if f.Name != strings.TrimSuffix(name, ".json") {
			t.Errorf("%s: spec name %q should match its file name", name, f.Name)
		}
		if f.Doc == "" {
			t.Errorf("%s: missing doc line", name)
		}
		for _, quick := range []bool{false, true} {
			scs, err := spec.Compile(f, spec.Options{Quick: quick})
			if err != nil {
				t.Errorf("%s (quick=%v): %v", name, quick, err)
				continue
			}
			for _, sc := range scs {
				if len(sc.Instances) == 0 {
					t.Errorf("%s (quick=%v): scenario %s compiled to zero instances", name, quick, sc.Name)
				}
			}
		}
	}
	for _, w := range workloads.Names() {
		if !used[w] {
			t.Errorf("workload %s is named by no embedded spec", w)
		}
	}
	for _, name := range repro.AlgorithmNames() {
		if !algos[name] {
			t.Errorf("algorithm %s is named by no embedded spec (add a scenario to e0_registry.json)", name)
		}
	}
}

// TestSmokeSpecRunsEverywhere executes the CI smoke spec at two worker
// counts and requires identical results — the embedded-library counterpart
// of the CLI smoke step in CI.
func TestSmokeSpecRunsEverywhere(t *testing.T) {
	f, err := Load("smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	var first []harness.Result
	for _, workers := range []int{1, 4} {
		out, err := spec.ExecuteFile(f, workers, 0, spec.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if n := out.Errors(); n != 0 {
			t.Fatalf("workers=%d: %d trials failed", workers, n)
		}
		if first == nil {
			first = out.Results
			continue
		}
		if len(out.Results) != len(first) {
			t.Fatalf("trial count changed with worker count")
		}
		for i := range first {
			if first[i].Seed != out.Results[i].Seed {
				t.Fatalf("trial %d seed changed with worker count", i)
			}
		}
	}
}
