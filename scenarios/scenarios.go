// Package scenarios embeds the checked-in experiment-spec library: one JSON
// file per experiment of the paper's grid (E0–E14, minus E6, whose
// Z-sequence internal/core's tests pin) plus combinations no paper table
// needs (Decay on seeded families, the diameter approximations across the
// full generator suite, unit-vs-physical cost ablations, the scale suite
// and the tiny CI smoke spec). The files are the single source of truth
// for the experiment grids: a paper table is the aggregate.md that
// `radiobfs run scenarios/<name>.json` writes, and every spec — registry
// algorithms and the table workloads of internal/workloads alike — also
// runs under -dist and as a `serve` job. The package's tests pin every
// spec's quick-overlay aggregates and check the paper claim each table
// measures against them.
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
