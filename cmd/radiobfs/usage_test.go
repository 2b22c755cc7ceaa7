package main

import (
	"flag"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/usage.golden from the live usage text")

// TestUsageGolden pins the top-level usage text byte-for-byte, so any
// registry change is a visible diff (refresh with `go test -run Usage
// -update ./cmd/radiobfs/`).
func TestUsageGolden(t *testing.T) {
	got := usageText()
	const golden = "testdata/usage.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("usage text drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", golden, got, want)
	}
}

// TestUsageEnumeratesEveryCommand guards the registry contract: every
// dispatchable subcommand appears in the usage listing, names are unique,
// and each has a synopsis and an entry point.
func TestUsageEnumeratesEveryCommand(t *testing.T) {
	text := usageText()
	seen := map[string]bool{}
	for _, c := range commands() {
		if seen[c.name] {
			t.Errorf("duplicate subcommand %q", c.name)
		}
		seen[c.name] = true
		if c.run == nil {
			t.Errorf("subcommand %q has no entry point", c.name)
		}
		if c.synopsis == "" {
			t.Errorf("subcommand %q has no synopsis", c.name)
		}
		if !strings.Contains(text, "  "+c.name+" ") {
			t.Errorf("usage text does not list %q:\n%s", c.name, text)
		}
	}
	for _, required := range []string{"run", "serve", "submit", "work"} {
		if !seen[required] {
			t.Errorf("registry lost the %q subcommand", required)
		}
	}
}
