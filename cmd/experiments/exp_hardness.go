package main

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/labelcast"
	"repro/internal/lowerbound"
	"repro/internal/stats"
)

// runE10 renders the Theorem 5.1 trade-off: detection success of K_n vs
// K_n−e scales linearly with the per-vertex energy budget, and the proof's
// counting identity |X_good| <= 2·energy holds on every transcript. The
// budget axis lives in scenarios/e10_lowerbound.json (one scenario per
// budget, the missing edge drawn per trial like the theorem's adversary).
func runE10(cfg config) {
	f, scs := cfg.loadSpec("e10_lowerbound.json")
	n := scs[0].Instances[0].N

	// The round-robin probe is deterministic — one transcript, no trials.
	full := lowerbound.RoundRobinProbe(graph.CompleteMinusEdge(n, 1, 2))
	fmt.Fprintf(cfg.out, "round-robin probe on K_%d−e: detected=%v, per-vertex energy=%d (Θ(n)), |X_good|=%d <= 2·E_total=%d: %v\n\n",
		n, full.Detected, full.MaxEnergy, full.Stats.GoodPairs, 2*full.Stats.TotalEnergy, full.Stats.BoundHolds())

	sums := harness.Aggregate(cfg.runAll(scs...))
	tbl := stats.NewTable("budgeted probe success vs energy (Theorem 5.1 trade-off)",
		"budget E", "E/n", "success", "analytic 1-(1-E/(n-1))²", "bound holds")
	for i, s := range sums {
		budget := int(f.Scenarios[i].Args["budget"])
		p := float64(budget) / float64(n-1)
		tbl.AddRowf(budget, float64(budget)/float64(n), s.Metrics["detected"].Mean,
			1-(1-p)*(1-p), s.Metrics["holds"].Min == 1)
	}
	tbl.Render(cfg.out)
	fmt.Fprintln(cfg.out, "success grows ∝ energy budget: distinguishing w.p. Ω(1) needs Ω(n) energy (Theorem 5.1).")
	fmt.Fprintln(cfg.out)
}

// runE11 renders the Theorem 5.2 construction: diameter 2 ⟺ disjoint sets,
// diameter 3 otherwise; arboricity O(log k); and the reduction's bit
// accounting. The ℓ axis lives in scenarios/e11_setdisj.json (instances
// carry k = 2^ℓ in n and ℓ in maxDist — constructed graphs, not
// graph.Named families).
func runE11(cfg config) {
	_, scs := cfg.loadSpec("e11_setdisj.json")
	results := cfg.runAll(scs...)
	tbl := stats.NewTable("set-disjointness lower-bound graphs (Theorem 5.2)",
		"ℓ", "k=2^ℓ", "|V|", "diam disjoint", "diam intersecting", "degeneracy", "O(log n) bound", "bits/listener-round")
	for _, r := range results {
		tbl.AddRowf(r.MaxDist, r.N, r.Get("vertices"), r.Get("diamDisj"), r.Get("diamInt"),
			r.Get("degeneracy"), 4*r.MaxDist, r.Get("bits"))
	}
	tbl.Render(cfg.out)
	fmt.Fprintln(cfg.out, "Each round costs O(|Z(τ)|·log k) bits in the two-party simulation; an")
	fmt.Fprintln(cfg.out, "o(k/log²k)-energy protocol would therefore solve set-disjointness with o(k)")
	fmt.Fprintln(cfg.out, "bits, contradicting its Ω(k) communication lower bound.")
	fmt.Fprintln(cfg.out)
}

// runE12 measures Theorem 5.3: the 2-approximation's band and costs, via
// the registry's diam2 workload on the family grid of
// scenarios/e12_diam2.json (also runnable via `radiobfs run`).
func runE12(cfg config) {
	_, scs := cfg.loadSpec("e12_diam2.json")
	results := cfg.runAll(scs...)
	tbl := stats.NewTable("2-approximation of diameter (Theorem 5.3)",
		"family", "n", "diam", "estimate", "in [diam/2, diam]", "maxLB E", "time(LB)")
	for _, r := range results {
		if r.Err != "" {
			fmt.Fprintln(cfg.out, "error:", r.Err)
			return
		}
		tbl.AddRowf(r.Family, r.N, r.Get("diam"), r.Get("estimate"), r.Get("inBand") == 1,
			r.Get("maxLB"), r.Get("timeLB"))
	}
	tbl.Render(cfg.out)
}

// runE13 renders Theorem 5.4: the nearly-3/2 approximation band, on the
// radio stack at small n and via the centralized mirror at larger n (grids
// from scenarios/e13_diam32.json).
func runE13(cfg config) {
	_, scs := cfg.loadSpec("e13_diam32.json")
	results := cfg.runAll(scs...)

	radioTbl := stats.NewTable("3/2-approximation on the radio stack (Theorem 5.4)",
		"family", "n", "diam", "estimate", "in [⌊2diam/3⌋, diam]", "|S|", "|R|", "BFS runs", "maxLB E")
	for _, r := range results {
		if r.Scenario != "E13-radio" {
			continue
		}
		if r.Err != "" {
			fmt.Fprintln(cfg.out, "error:", r.Err)
			return
		}
		radioTbl.AddRowf(r.Family, r.N, r.Get("diam"), r.Get("estimate"), r.Get("inBand") == 1,
			r.Get("sampleSize"), r.Get("rSize"), r.Get("bfsRuns"), r.Get("maxLB"))
	}
	radioTbl.Render(cfg.out)

	mirror := stats.NewTable("3/2-approximation, centralized mirror at larger n",
		"family", "n", "diam", "min est", "max est", "band low", "all in band", "seeds")
	for _, s := range harness.Aggregate(results) {
		if s.Scenario != "E13-mirror" {
			continue
		}
		mirror.AddRowf(s.Family, s.N, s.Metrics["diam"].Mean, s.Metrics["estimate"].Min,
			s.Metrics["estimate"].Max, s.Metrics["bandLow"].Mean, s.Metrics["inBand"].Min == 1, s.Trials)
	}
	mirror.Render(cfg.out)
}

// runE14 renders the §1 motivation: polling period P trades latency for
// steady-state listening energy (period axis from
// scenarios/e14_polling.json; every scenario runs on the same graph).
func runE14(cfg config) {
	f, scs := cfg.loadSpec("e14_polling.json")
	results := cfg.runAll(scs...)
	tbl := stats.NewTable(fmt.Sprintf("duty-cycled dissemination on a geometric network (n=%d, depth=%d)",
		int(results[0].Get("vertices")), int(results[0].Get("depth"))),
		"period P", "delivered", "latency (slots)", "max LB energy", "idle listens", "steady listens/1000 slots")
	for i, r := range results {
		period := int(f.Scenarios[i].Args["period"])
		tbl.AddRowf(period, r.Get("delivered") == 1, r.Get("latency"), r.Get("maxLB"),
			r.Get("idle"), labelcast.SteadyStateListens(1000, period))
	}
	tbl.Render(cfg.out)
	fmt.Fprintln(cfg.out, "latency grows by ~P while idle listening drops by 1/P — the trade the paper opens with.")
	fmt.Fprintln(cfg.out)
}
