// Package spec is the declarative scenario layer over the experiment
// harness: it parses JSON experiment-spec files, validates them against the
// live registries (repro.Get for algorithms, graph.FamilyNames for workload
// families), and compiles them onto internal/harness scenarios, so that a
// topology × algorithm × cost-model combination is a checked-in data file
// instead of a hand-written Go driver.
//
// A spec file declares a named experiment: a root-seed policy, optional
// output columns, and a list of scenarios, each naming either a registered
// repro.Algorithm (with typed parameter overrides) or a custom workload from
// the static table of internal/workloads (with free-form args). Both kinds
// resolve wherever a spec compiles, so every driver runs every spec.
// Instances come from explicit lists or family × size grids, with optional
// reduced-size "quick" overlays for CI-scale runs. The checked-in library
// lives in the scenarios/ directory at the repository root (embedded by the
// scenarios package) and is the single source of truth for the paper's
// experiment grids: each of its E0–E14 specs is a paper table, which
// `radiobfs run`, `run -dist` and `serve` execute and write out as
// aggregate.md.
//
// Execution and persistence follow the harness's determinism contract:
// every trial's seed derives from (root, scenario, instance, index) alone,
// so an executed spec — and every artifact Output.WriteArtifacts persists
// (per-trial JSONL, aggregated CSV, a rendered Markdown table, a manifest) —
// is byte-identical at any worker count. No artifact contains a timestamp
// or any other machine-dependent value.
package spec
