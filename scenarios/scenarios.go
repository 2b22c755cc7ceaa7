// Package scenarios embeds the checked-in experiment-spec library: one JSON
// file per experiment of the paper's grid (E1–E14, minus the trial-free
// Z-sequence printout E6) plus combinations the Go drivers never exposed
// (Decay on seeded families, the diameter approximations across the full
// generator suite, unit-vs-physical cost ablations, and the tiny CI smoke
// spec). The files are the single source of truth for the experiment grids:
// cmd/experiments renders its tables from them, and every spec — registry
// algorithms and the table workloads of internal/workloads alike — also
// runs standalone via `radiobfs run scenarios/<name>.json`, under -dist,
// and as a `serve` job.
//
// See internal/spec for the file format and README.md for a worked example.
package scenarios

import (
	"embed"
	"sort"

	"repro/internal/spec"
)

// FS holds every checked-in spec file, embedded so drivers and tests run
// from any working directory.
//
//go:embed *.json
var FS embed.FS

// Names lists the embedded spec files, sorted.
func Names() []string {
	entries, err := FS.ReadDir(".")
	if err != nil {
		panic(err) // embed.FS.ReadDir(".") cannot fail
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// Load parses and validates one embedded spec file.
func Load(name string) (*spec.File, error) {
	f, err := spec.ParseFS(FS, name)
	if err != nil {
		return nil, err
	}
	if err := f.Validate(); err != nil {
		return nil, err
	}
	return f, nil
}
