package main

import (
	"fmt"
	"strings"

	"repro"
	"repro/internal/harness"
	"repro/internal/stats"
)

// runE0 drives every registered algorithm through the public registry on a
// shared small workload. The experiment enumerates repro.Algorithms() rather
// than naming workloads, so registering a new algorithm grows this table (and
// only this code decides how to render it) without touching any driver —
// the registry counterpart of the per-theorem experiments below.
func runE0(cfg config) {
	n := 64
	trials := 3
	if cfg.quick {
		n, trials = 36, 2
	}
	algos := repro.Algorithms()
	var scs []*harness.Scenario
	for _, a := range algos {
		scs = append(scs, &harness.Scenario{
			Name:      "E0-" + a.Name(),
			Instances: []harness.Instance{{Family: "grid", N: n}},
			Trials:    trials,
			Algo:      harness.Algo(a.Name()),
		})
	}
	sums := harness.Aggregate(cfg.runAll(scs...))
	byName := map[string]harness.Summary{}
	for _, s := range sums {
		byName[strings.TrimPrefix(s.Scenario, "E0-")] = s
	}

	tbl := stats.NewTable(fmt.Sprintf("registry smoke: every registered algorithm on grid n=%d (%d trials)", n, trials),
		"algorithm", "params", "metric", "mean", "min", "max")
	for _, a := range algos {
		s, ok := byName[a.Name()]
		if !ok || s.Errors > 0 {
			tbl.AddRowf(a.Name(), "-", "ERROR", "-", "-", "-")
			continue
		}
		params := "-"
		if ps := a.Params(); len(ps) > 0 {
			names := make([]string, len(ps))
			for i, p := range ps {
				names[i] = p.Name
			}
			params = strings.Join(names, ",")
		}
		for _, name := range sortedKeys(s.Metrics) {
			m := s.Metrics[name]
			tbl.AddRowf(a.Name(), params, name, m.Mean, m.Min, m.Max)
			params = "" // print the param list once per algorithm block
		}
	}
	tbl.Render(cfg.out)
	fmt.Fprintln(cfg.out, "Rows come from repro.Algorithms(): a newly registered algorithm appears here,")
	fmt.Fprintln(cfg.out, "in `radiobfs -algo <name>`, in spec files, and in the benchmark suite automatically.")
	fmt.Fprintln(cfg.out)
}
