package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/spec"
)

// TestMain lets the coordinator under test spawn this test executable as a
// worker: dist.Config's default command is `<this binary> work`, exactly the
// path `radiobfs run -dist` takes in production.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "work" {
		if err := dist.ServeWorker(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeTestSpec drops a small registry-only spec into dir and returns its
// path.
func writeTestSpec(t *testing.T, dir string) string {
	t.Helper()
	path := filepath.Join(dir, "cmdtest.json")
	blob := `{
  "name": "cmdtest",
  "seed": 3,
  "scenarios": [
    {
      "name": "ring",
      "algorithm": "recursive",
      "trials": 3,
      "instances": [{"family": "cycle", "n": 48, "maxDist": 12}]
    },
    {
      "name": "diam",
      "algorithm": "diam2",
      "trials": 2,
      "instances": [{"family": "star", "n": 40}]
    }
  ]
}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func readArtifacts(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	arts := map[string][]byte{}
	for _, name := range []string{spec.TrialsArtifact, spec.CSVArtifact, spec.MarkdownArtifact, spec.ManifestArtifact} {
		b, err := os.ReadFile(filepath.Join(dir, "cmdtest", name))
		if err != nil {
			t.Fatalf("artifact %s: %v", name, err)
		}
		arts[name] = b
	}
	return arts
}

// TestExecSpecsInterruptedWritesNothing: a canceled run context (the SIGINT/
// SIGTERM path) must settle, exit non-zero with an interruption error, and
// leave NO artifact files behind — partially-executed sweeps never reach the
// results directory.
func TestExecSpecsInterruptedWritesNothing(t *testing.T) {
	dir := t.TempDir()
	specPath := writeTestSpec(t, dir)
	outDir := filepath.Join(dir, "results")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var stdout, stderr bytes.Buffer
	err := execSpecs(ctx, []string{"-out", outDir, specPath}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "interrupted") {
		t.Fatalf("execSpecs = %v, want interruption error", err)
	}
	if entries, _ := os.ReadDir(outDir); len(entries) != 0 {
		t.Errorf("interrupted run wrote into %s: %v", outDir, entries)
	}
	if stdout.Len() != 0 {
		t.Errorf("interrupted run wrote a partial table to stdout: %q", stdout.String())
	}
}

// TestExecSpecsDistByteIdentity runs the same spec in-process, distributed,
// and distributed-under-chaos, and requires every artifact file — trials
// JSONL, CSV, Markdown, manifest — byte-identical across all three.
func TestExecSpecsDistByteIdentity(t *testing.T) {
	dir := t.TempDir()
	specPath := writeTestSpec(t, dir)
	runs := []struct {
		name string
		args []string
	}{
		{"inproc", nil},
		{"dist", []string{"-dist", "-workers", "2"}},
		{"chaos", []string{"-workers", "2", "-chaos", "seed=2,killafter=2"}},
	}
	var want map[string][]byte
	for _, run := range runs {
		outDir := filepath.Join(dir, "out-"+run.name)
		var stdout, stderr bytes.Buffer
		args := append(append([]string{"-out", outDir}, run.args...), specPath)
		if err := execSpecs(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v\nstderr: %s", run.name, err, stderr.String())
		}
		got := readArtifacts(t, outDir)
		if want == nil {
			want = got
			continue
		}
		for name, blob := range got {
			if !bytes.Equal(blob, want[name]) {
				t.Errorf("%s: artifact %s differs from the in-process run", run.name, name)
			}
		}
	}
}

// TestExecSpecsRejectsBadChaos: malformed -chaos values fail before any
// trial runs.
func TestExecSpecsRejectsBadChaos(t *testing.T) {
	dir := t.TempDir()
	specPath := writeTestSpec(t, dir)
	var stdout, stderr bytes.Buffer
	err := execSpecs(context.Background(), []string{"-chaos", "seed=x", specPath}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "chaos") {
		t.Fatalf("execSpecs = %v, want chaos parse error", err)
	}
}
