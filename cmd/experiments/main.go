// Command experiments regenerates every experiment table of the
// reproduction: one table or chart per theorem/lemma/figure of the paper
// (see the package documentation of the root repro package for the claim
// list, and DESIGN.md for the paper-to-code map).
//
// The experiment grids — instances, trial counts, parameters, quick-mode
// overlays — are NOT defined here: they load from the checked-in spec files
// embedded by the scenarios package (scenarios/eN_*.json), the same files
// `radiobfs run` executes. This command contributes only what a data file
// cannot: the instrumented custom workloads (attached by name through
// spec.Options.Custom) and the per-theorem table rendering. E6 is the one
// exception — a trial-free Z-sequence printout with no grid to declare.
//
// All instance expansion and metering goes through the shared parallel
// trial runner in internal/harness, so tables are reproducible from the
// root seed at any worker count.
//
// Usage:
//
//	experiments [-quick] [-only E1,E7] [-seed 1] [-workers 0]
//
// -quick compiles the specs' reduced-size overlays for CI-scale runs;
// -only selects a subset; -workers bounds trial parallelism (0 = all
// cores); -seed overrides the spec files' seed policy as the runner root.
// Tables go to stdout, per-experiment timing to stderr.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/spec"
	"repro/scenarios"
)

type experiment struct {
	id    string
	title string
	run   func(cfg config)
}

type config struct {
	quick  bool
	seed   uint64
	out    *os.File
	runner harness.Runner
}

// runAll is cfg sugar: execute scenarios on the shared runner.
func (cfg config) runAll(scs ...*harness.Scenario) []harness.Result {
	return cfg.runner.Run(scs...)
}

// loadSpec loads one embedded spec file and compiles it — honoring -quick —
// with the experiment's custom workloads attached. The spec files are
// checked in and validated by tests, so a failure here is a build defect
// and aborts the run.
func (cfg config) loadSpec(name string, custom map[string]spec.CustomFunc) (*spec.File, []*harness.Scenario) {
	f, err := scenarios.Load(name)
	if err == nil {
		var scs []*harness.Scenario
		if scs, err = spec.Compile(f, spec.Options{Quick: cfg.quick, Custom: custom}); err == nil {
			return f, scs
		}
	}
	fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
	os.Exit(1)
	return nil, nil
}

// startProfiles begins CPU profiling (when cpuPath is non-empty) and returns
// a stop function that ends it and writes a heap profile taken after a GC
// (when memPath is non-empty). Either path may be empty; the stop function
// is always safe to call exactly once. Profiling never touches the
// simulation's randomness or output: stdout bytes are identical with and
// without it.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func main() {
	quick := flag.Bool("quick", false, "run reduced instance sizes")
	only := flag.String("only", "", "comma-separated experiment IDs (e.g. E1,E7)")
	seed := flag.Uint64("seed", 1, "root seed")
	workers := flag.Int("workers", 0, "concurrent trials (0 = GOMAXPROCS)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile taken after the run to this file")
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
	defer func() {
		if err := stopProfiles(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: profile: %v\n", err)
		}
	}()

	cfg := config{
		quick:  *quick,
		seed:   *seed,
		out:    os.Stdout,
		runner: harness.Runner{Workers: *workers, Root: *seed},
	}
	selected := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(strings.ToUpper(id)); id != "" {
			selected[id] = true
		}
	}
	all := []experiment{
		{"E0", "algorithm registry — every registered workload, one smoke table", runE0},
		{"E1", "Theorem 4.1 — Recursive-BFS energy and time", runE1},
		{"E2", "Lemma 2.4 — Local-Broadcast (Decay) costs", runE2},
		{"E3", "Lemma 2.5 — MPX clustering costs and shape", runE3},
		{"E4", "Lemmas 2.1-2.3 — cluster graph as distance proxy", runE4},
		{"E5", "Lemmas 3.1-3.2 — cast and virtual-LB overhead", runE5},
		{"E6", "Z-sequence (§4.1, Lemma 4.2)", runE6},
		{"E7", "Claims 1-2 — participation counters", runE7},
		{"E8", "Invariant 4.1 — reference check", runE8},
		{"E9", "Figure 3 — distance-estimate evolution", runE9},
		{"E10", "Theorem 5.1 — K_n vs K_n-e energy trade-off", runE10},
		{"E11", "Theorem 5.2 — set-disjointness construction", runE11},
		{"E12", "Theorem 5.3 — 2-approximate diameter", runE12},
		{"E13", "Theorem 5.4 — 3/2-approximate diameter", runE13},
		{"E14", "§1 motivation — polling-period dissemination", runE14},
		{"SCALE", "production-scale physics stress — Decay BFS at n ≥ 10⁶", runScale},
	}
	// Heavy experiments are opt-in at full size: they run when named in
	// -only, or via their reduced quick overlay, but not in a default full
	// sweep (the scale suite alone is about a minute of wall time).
	heavy := map[string]bool{"SCALE": true}
	for _, e := range all {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		if len(selected) == 0 && heavy[e.id] && !*quick {
			fmt.Fprintf(os.Stderr, "%s skipped at full size (run with -only %s, or -quick for the overlay)\n", e.id, e.id)
			continue
		}
		start := time.Now()
		fmt.Fprintf(cfg.out, "# %s: %s\n\n", e.id, e.title)
		e.run(cfg)
		fmt.Fprintf(os.Stderr, "%s finished in %v\n", e.id, time.Since(start).Round(time.Millisecond))
	}
}

// sortedKeys returns map keys in sorted order for deterministic output.
func sortedKeys[K int | string, V any](m map[K]V) []K {
	ks := make([]K, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool { return ks[i] < ks[j] })
	return ks
}
