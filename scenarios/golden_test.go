package scenarios

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite the golden aggregates under testdata/")

// TestGoldenAggregates pins the numbers themselves, not just agreement
// between execution paths: the aggregate.csv of every embedded spec's
// -quick overlay must match testdata/<name>.aggregate.csv byte for byte.
// A change that moves any result needs a reviewed golden diff; record one
// with `go test ./scenarios -run TestGoldenAggregates -update`.
func TestGoldenAggregates(t *testing.T) {
	want := map[string]bool{}
	for _, name := range Names() {
		f, err := Load(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want[f.Name+".aggregate.csv"] = true
		t.Run(f.Name, func(t *testing.T) {
			out, err := spec.ExecuteFile(f, 2, 0, spec.Options{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if n := out.Errors(); n != 0 {
				t.Fatalf("%d trials failed", n)
			}
			dir, err := out.WriteArtifacts(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, spec.CSVArtifact))
			if err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", f.Name+".aggregate.csv")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			exp, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to record)", err)
			}
			if !bytes.Equal(got, exp) {
				t.Errorf("aggregate differs from %s (run with -update to accept):\n%s", golden, firstDiff(got, exp))
			}
		})
	}
	// A golden whose spec was renamed or deleted would otherwise go stale
	// silently.
	entries, err := os.ReadDir("testdata")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".aggregate.csv") && !want[e.Name()] {
			t.Errorf("testdata/%s pins no embedded spec", e.Name())
		}
	}
}

// firstDiff renders the first differing line of two CSV documents.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d:\n got  %s\n want %s", i+1, gl, wl)
		}
	}
	return ""
}
