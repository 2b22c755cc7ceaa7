package main

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// trialKey indexes a result by its coordinates for table formatting.
func trialKey(scenario, family string, n, index int) string {
	return fmt.Sprintf("%s|%s|%d|%d", scenario, family, n, index)
}

// byTrial maps results by (scenario, family, n, trial index).
func byTrial(results []harness.Result) map[string]harness.Result {
	m := make(map[string]harness.Result, len(results))
	for _, r := range results {
		m[trialKey(r.Scenario, r.Family, r.N, r.Index)] = r
	}
	return m
}

// runE1 measures Theorem 4.1: Recursive-BFS labels are exact, and its
// energy/time are reported against the everyone-awake baseline in both cost
// models. The grid comes from scenarios/e1_recursive.json — three registry
// scenarios (recursive, the wavefront-parameter ablation, and a physical-
// channel spot check) that also run standalone via `radiobfs run`. The
// paper's asymptotic crossover lies beyond simulable n; what is checked
// here is correctness, the LB-unit scaling fit, and the baseline's strictly
// linear-in-D energy.
func runE1(cfg config) {
	_, scs := cfg.loadSpec("e1_recursive.json")
	results := byTrial(cfg.runAll(scs...))

	insts := scs[0].Instances
	tbl := stats.NewTable("Recursive-BFS vs Decay baseline (unit-cost LBs)",
		"family", "n", "D", "params", "rec maxLB", "rec time(LB)", "base maxLB", "base time(LB)", "mislabeled")
	var ds, recE, baseE []float64
	for _, in := range insts {
		rec := results[trialKey("E1-recursive", in.Family, in.N, 0)]
		bas := results[trialKey("E1-wavefront", in.Family, in.N, 0)]
		if rec.Err != "" || bas.Err != "" {
			fmt.Fprintln(cfg.out, "error:", rec.Err, bas.Err)
			return
		}
		p := core.AutoParams(in.N, in.MaxDist)
		tbl.AddRowf(in.Family, in.N, in.MaxDist, p.String(),
			rec.Get("maxLB"), rec.Get("timeLB"), bas.Get("maxLB"), bas.Get("timeLB"),
			rec.Get("mislabeled"))
		if in.Family == "cycle" {
			ds = append(ds, float64(in.MaxDist))
			recE = append(recE, rec.Get("maxLB"))
			baseE = append(baseE, bas.Get("maxLB"))
		}
	}
	tbl.Render(cfg.out)
	eRec, _ := stats.FitPowerLaw(ds, recE)
	eBase, _ := stats.FitPowerLaw(ds, baseE)
	fmt.Fprintf(cfg.out, "cycle-family scaling fits (energy ~ D^e): recursive e=%.2f, baseline e=%.2f\n", eRec, eBase)
	fmt.Fprintf(cfg.out, "baseline is Θ(D); recursive carries large polylog constants at these n (crossover beyond simulable sizes)\n\n")

	physInst := scs[2].Instances[0]
	phys := results[trialKey("E1-physical", physInst.Family, physInst.N, 0)]
	fmt.Fprintf(cfg.out, "physical channel (n=%d, D=%d): mislabeled=%.0f, max slot energy=%.0f, rounds=%.0f, msg violations=%.0f\n\n",
		physInst.N, physInst.MaxDist,
		phys.Get("mislabeled"), phys.Get("physMax"), phys.Get("physRounds"), phys.Get("msgViolations"))
}

// runE2 renders Lemma 2.4's Local-Broadcast: success probability under
// contention, sender energy O(passes), hearing-receiver energy O(log Δ).
// The degree × passes grid lives in scenarios/e2_localbroadcast.json.
func runE2(cfg config) {
	f, scs := cfg.loadSpec("e2_localbroadcast.json")
	sums := harness.Aggregate(cfg.runAll(scs...))
	cellOf := map[string]harness.Summary{}
	for _, s := range sums {
		cellOf[fmt.Sprintf("%s|%d", s.Scenario, s.N)] = s
	}
	tbl := stats.NewTable("Local-Broadcast under contention (star center listening)",
		"degree", "passes", "success", "sender E", "rx-hear E(mean)", "duration(slots)")
	for _, in := range scs[0].Instances {
		deg := in.N - 1
		for i := range f.Scenarios {
			passes := int(f.Scenarios[i].Args["passes"])
			s := cellOf[fmt.Sprintf("%s|%d", f.Scenarios[i].Name, in.N)]
			tbl.AddRowf(deg, passes, s.Metrics["ok"].Mean, s.Metrics["senderE"].Mean,
				s.Metrics["hearE"].Mean, decay.ParamsFor(in.N, passes).Duration())
		}
	}
	tbl.Render(cfg.out)
}

// runE3 renders Lemma 2.5: clustering runs in TMax Local-Broadcasts with
// O(TMax) energy, radius < TMax, and an O(β) cut fraction. The family × β
// grid lives in scenarios/e3_clustering.json.
func runE3(cfg config) {
	f, scs := cfg.loadSpec("e3_clustering.json")
	results := byTrial(cfg.runAll(scs...))
	tbl := stats.NewTable("MPX clustering (Lemma 2.5)",
		"family", "n", "1/β", "TMax", "clusters", "radius", "cut frac", "β", "maxLB E", "time(LB)")
	for _, in := range scs[0].Instances {
		for i := range f.Scenarios {
			invBeta := int(f.Scenarios[i].Args["invBeta"])
			r := results[trialKey(f.Scenarios[i].Name, in.Family, in.N, 0)]
			// The family may round n (e.g. a grid's side); the trial reports
			// the real size.
			n := int(r.Get("vertices"))
			tbl.AddRowf(in.Family, n, invBeta, cluster.DefaultConfig(n, invBeta).TMax,
				r.Get("clusters"), r.Get("radius"), r.Get("cutFrac"), 1.0/float64(invBeta),
				r.Get("maxLB"), r.Get("timeLB"))
		}
	}
	tbl.Render(cfg.out)
}

// runE4 renders Lemmas 2.1-2.3 on the ideal (fractional) MPX process from
// the one deep trial of scenarios/e4_ideal_mpx.json, which reports both
// tables as metrics.
func runE4(cfg config) {
	f, scs := cfg.loadSpec("e4_ideal_mpx.json")
	r := cfg.runAll(scs...)[0]
	if r.Err != "" {
		fmt.Fprintln(cfg.out, "error:", r.Err)
		return
	}
	invBeta := int(f.Scenarios[0].Args["invBeta"])
	q := 1 - math.Exp(-2/float64(invBeta))
	tails := stats.NewTable(fmt.Sprintf("Lemma 2.1 tail on path n=%d, 1/β=%d (bound q=%.3f)", r.N, invBeta, q),
		"j", "P(count > j) observed", "bound q^j")
	for j := 1; j <= 6; j++ {
		tails.AddRowf(j, r.Get(workloads.TailMetric(j)), math.Pow(q, float64(j)))
	}
	tails.Render(cfg.out)

	ratios := stats.NewTable("Lemmas 2.2/2.3 distance-proxy ratio dist*/(β·d) on the path",
		"d bucket", "samples", "min ratio", "mean ratio", "max ratio", "2.2 band", "2.3 band (large d)")
	lg := math.Log2(float64(r.N))
	for _, b := range workloads.RatioBuckets(r.N) {
		lo, hi := b[0], b[1]
		samples, ok := r.Metrics[workloads.RatioMetric(lo, "samples")]
		if !ok {
			continue
		}
		band23 := "-"
		if lo >= invBeta*int(lg*lg) {
			band23 = "O(1) factor"
		}
		ratios.AddRowf(fmt.Sprintf("[%d,%d)", lo, hi), int(samples), r.Get(workloads.RatioMetric(lo, "min")),
			r.Get(workloads.RatioMetric(lo, "mean")), r.Get(workloads.RatioMetric(lo, "max")),
			fmt.Sprintf("[%.3f, %.1f]", 1/(8*lg), 8*lg), band23)
	}
	ratios.Render(cfg.out)
	fmt.Fprintln(cfg.out, "Lemma 2.2 predicts ratios within a Θ(log n) band for all d; Lemma 2.3 tightens")
	fmt.Fprintln(cfg.out, "it to a constant band once d = Ω(β⁻¹·log² n) — visible as shrinking spread above.")
	fmt.Fprintln(cfg.out)
}

// runE5 renders Lemma 3.1/3.2 overheads on a one-level virtual network
// (grid size from scenarios/e5_vnet.json).
func runE5(cfg config) {
	_, scs := cfg.loadSpec("e5_vnet.json")
	res := cfg.runAll(scs...)[0]
	if res.Err != "" {
		fmt.Fprintln(cfg.out, "error:", res.Err)
		return
	}
	tbl := stats.NewTable("Cast and virtual-LB costs (Lemmas 3.1, 3.2)",
		"quantity", "value", "paper bound")
	tbl.AddRowf("clusters", res.Get("clusters"), "-")
	tbl.AddRowf("contention bound C", res.Get("contention"), "O(log n / log(1/β))·const")
	tbl.AddRowf("subset universe ℓ", res.Get("subsetLen"), "Θ(C log n)")
	tbl.AddRowf("cast duration (parent LBs)", res.Get("castLBs"), "TMax·ℓ = O(log³n / (β log 1/β))")
	tbl.AddRowf("virtual LB duration", res.Get("vlbCost"), "3 casts + 1")
	tbl.AddRowf("downcast per-vertex LBs (mean)", res.Get("downMean"), "O(|S_C|) = O(log n)")
	tbl.AddRowf("downcast per-vertex LBs (max)", res.Get("downMax"), "O(log n)")
	tbl.AddRowf("subset property (2) failures", res.Get("subsetFails"), "0 w.h.p.")
	tbl.AddRowf("cast divergence events", res.Get("castFails"), "0 w.h.p.")
	tbl.Render(cfg.out)
}

// runE6 prints the Z-sequence and its Lemma 4.2 profile. Pure arithmetic —
// no graphs, no trials, nothing for a scenario spec to declare — so it is
// the one experiment that bypasses both the runner and the spec library.
func runE6(cfg config) {
	z := core.NewZSeq(4, 200) // D* = 256
	tbl := stats.NewTable("Z-sequence, α=4, D*=256 (Z[0]=D*)", "i", "Y[i]", "Z[i]")
	for i := 1; i <= 32; i++ {
		tbl.AddRowf(i, core.Y(i), z.At(i))
	}
	tbl.Render(cfg.out)
	fmt.Fprintln(cfg.out, "Lemma 4.2's periodicity properties are verified exhaustively in internal/core tests.")
	fmt.Fprintln(cfg.out)
}

// runE7 renders Claims 1 and 2 on the cycle grid of
// scenarios/e7_participation.json.
func runE7(cfg config) {
	f, scs := cfg.loadSpec("e7_participation.json")
	results := cfg.runAll(scs...)
	args := f.Scenarios[0].Args
	tbl := stats.NewTable(fmt.Sprintf("Claims 1-2: participation counters (cycles, fixed β=1/%d, w=%d)", int(args["invBeta"]), int(args["w"])),
		"n", "D", "stages", "max X_i count", "max Special Updates", "sender violations")
	var xs, xis, sps []float64
	for _, r := range results {
		tbl.AddRowf(r.N, r.MaxDist, r.Get("stages"), r.Get("maxXi"), r.Get("maxSpecial"), r.Get("senderViol"))
		xs = append(xs, r.Get("stages"))
		xis = append(xis, r.Get("maxXi"))
		sps = append(sps, r.Get("maxSpecial"))
	}
	tbl.Render(cfg.out)
	eXi, _ := stats.FitPowerLaw(xs, xis)
	eSp, _ := stats.FitPowerLaw(xs, sps)
	fmt.Fprintf(cfg.out, "growth vs stage count: maxXi ~ stages^%.2f, maxSpecial ~ stages^%.2f (both << 1: sublinear,\n", eXi, eSp)
	fmt.Fprintln(cfg.out, "consistent with the polylog bounds of Claims 1-2; the proven bounds O(w²·log D) are far above).")
	fmt.Fprintln(cfg.out)
}

// runE8 renders the expensive Invariant 4.1 reference check across the seeds
// declared by scenarios/e8_invariant.json.
func runE8(cfg config) {
	_, scs := cfg.loadSpec("e8_invariant.json")
	results := cfg.runAll(scs...)
	tbl := stats.NewTable("Invariant 4.1 reference check", "graph", "seed", "low violations (dist<L)", "high violations (dist>U)", "mislabeled")
	for _, r := range results {
		tbl.AddRowf(r.Family, r.Index, r.Get("low"), r.Get("high"), r.Get("mislabeled"))
	}
	tbl.Render(cfg.out)
}

// runE9 renders Figure 3: the evolution of [L, U] and the true wavefront
// distance for one cluster, from the trace the one trial of
// scenarios/e9_figure3.json reports as metrics.
func runE9(cfg config) {
	_, scs := cfg.loadSpec("e9_figure3.json")
	r := cfg.runAll(scs...)[0]
	if r.Err != "" {
		fmt.Fprintln(cfg.out, "error:", r.Err)
		return
	}

	var lSeries, uSeries, tSeries []float64
	tbl := stats.NewTable("Figure 3 series (cluster of the antipodal vertex)",
		"stage", "Z[i+1]", "L_i", "U_i", "true dist to W_i")
	for i := 0; i < int(r.Get("points")); i++ {
		l, u := r.Get(workloads.TraceMetric("L", i)), r.Get(workloads.TraceMetric("U", i))
		dist := r.Get(workloads.TraceMetric("dist", i))
		uStr, uv := fmt.Sprint(int64(u)), u
		if u > float64AsInt64Cap {
			uStr, uv = "∞", math.NaN()
		}
		lSeries = append(lSeries, max(l, 0))
		uSeries = append(uSeries, uv)
		tSeries = append(tSeries, dist)
		tbl.AddRowf(i, int64(r.Get(workloads.TraceMetric("Z", i))), int64(l), uStr, int64(dist))
	}
	tbl.Render(cfg.out)
	fmt.Fprintln(cfg.out, stats.Chart(60, 14,
		stats.Series{Name: "U_i (upper bound)", Mark: '#', Points: uSeries},
		stats.Series{Name: "true dist(W_i, C)", Mark: '*', Points: tSeries},
		stats.Series{Name: "L_i (lower bound)", Mark: '.', Points: lSeries},
	))
}

const float64AsInt64Cap = float64(int64(1) << 40)
