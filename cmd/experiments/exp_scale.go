package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/harness"
	"repro/internal/stats"
)

// runScale executes the production-scale suite (scenarios/scale_suite.json):
// Decay BFS on the physical channel at n = 10⁶–4·10⁶, the largest instances
// the repository runs. Each instance is run on its own, and like every trial
// it runs its physics sequentially on one worker. The suite is heavy (over
// ten seconds of wall time at full size), so it runs only under -quick or
// when explicitly selected with -only SCALE. The stdout table carries only
// the paper metrics — rows are byte-identical at any worker count, like
// every experiment — while per-instance wall time, the quantity this
// experiment exists to move, goes to stderr with the rest of the timing.
func runScale(cfg config) {
	_, scs := cfg.loadSpec("scale_suite.json", nil)

	tbl := stats.NewTable("scale suite: Decay BFS on the physical channel",
		"family", "n", "D", "mislabeled", "physMax", "physRounds", "msgViolations")
	for _, sc := range scs {
		for _, in := range sc.Instances {
			one := *sc
			one.Instances = []harness.Instance{in}
			start := time.Now()
			results := cfg.runAll(&one)
			wall := time.Since(start).Round(time.Millisecond)
			fmt.Fprintf(os.Stderr, "SCALE %s n=%d: %v wall (workers=%d, GOMAXPROCS=%d)\n",
				in.Family, in.N, wall, cfg.runner.Workers, runtime.GOMAXPROCS(0))
			for _, r := range results {
				if r.Err != "" {
					tbl.AddRowf(r.Family, r.N, r.MaxDist, "ERROR: "+r.Err, "-", "-", "-")
					continue
				}
				tbl.AddRowf(r.Family, r.N, r.MaxDist,
					r.Get("mislabeled"), r.Get("physMax"), r.Get("physRounds"), r.Get("msgViolations"))
			}
		}
	}
	tbl.Render(cfg.out)
	fmt.Fprintln(cfg.out, "Every trial runs its physics sequentially on one worker; parallelism is")
	fmt.Fprintln(cfg.out, "between trials (see DESIGN.md, \"Parallelism is between trials\"). Rows are")
	fmt.Fprintln(cfg.out, "identical at every worker count — only the stderr wall times move.")
	fmt.Fprintln(cfg.out)
}
