package main

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/lbnet"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/spec"
	"repro/internal/stats"
	"repro/internal/vnet"
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

// coreArgs reads the Recursive-BFS stack parameters a custom scenario's
// args declare (invBeta, depth, w, alpha); fractional values are an error,
// never a silent truncation, and the assembled set is range-checked.
func coreArgs(s *spec.Scenario) (core.Params, error) {
	for _, name := range []string{"invBeta", "depth", "w", "alpha"} {
		if v, ok := s.Args[name]; ok && v != float64(int(v)) {
			return core.Params{}, fmt.Errorf("args.%s = %g, must be an integer", name, v)
		}
	}
	p := core.Params{
		InvBeta: int(s.Args["invBeta"]),
		Depth:   int(s.Args["depth"]),
		W:       int(s.Args["w"]),
		Alpha:   int(s.Args["alpha"]),
	}
	return p, p.Validate()
}

// intArg reads one required integer argument of a custom scenario;
// fractional values are an error, never a silent truncation.
func intArg(s *spec.Scenario, name string) (int, error) {
	v, ok := s.Args[name]
	if !ok || v < 1 || v != float64(int(v)) {
		return 0, fmt.Errorf("args.%s = %g, must be a positive integer", name, v)
	}
	return int(v), nil
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
	_, scs := cfg.loadSpec("e1_recursive.json", nil)
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

// runE2 measures Lemma 2.4's Local-Broadcast: success probability under
// contention, sender energy O(passes), hearing-receiver energy O(log Δ).
// The degree × passes grid lives in scenarios/e2_localbroadcast.json.
func runE2(cfg config) {
	f, scs := cfg.loadSpec("e2_localbroadcast.json", map[string]spec.CustomFunc{
		"e2/local-broadcast": func(s *spec.Scenario) (harness.TrialCtxFunc, error) {
			passes, err := intArg(s, "passes")
			if err != nil {
				return nil, err
			}
			return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				deg := tr.N - 1
				g := graph.Star(tr.N)
				p := decay.ParamsFor(tr.N, passes)
				eng := radio.NewEngine(g)
				senders := make([]radio.TX, 0, deg)
				for v := 1; v <= deg; v++ {
					senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v)}})
				}
				got := make([]radio.Msg, 1)
				ok := make([]bool, 1)
				new(decay.Scratch).LocalBroadcast(eng, p, senders, []int32{0}, rng.Derive(tr.Seed, 0xe2), got, ok)
				m := harness.Metrics{"ok": harness.BoolMetric(ok[0]), "senderE": float64(eng.Energy(1))}
				if ok[0] {
					// Conditional metric: mean hearing energy over the
					// trials in which the center actually heard.
					m["hearE"] = float64(eng.Energy(0))
				}
				return m, nil
			}, nil
		},
	})
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

// runE3 measures Lemma 2.5: clustering runs in TMax Local-Broadcasts with
// O(TMax) energy, radius < TMax, and an O(β) cut fraction. The family × β
// grid lives in scenarios/e3_clustering.json.
func runE3(cfg config) {
	graphSeed := rng.Derive(cfg.seed, 0xe3)
	f, scs := cfg.loadSpec("e3_clustering.json", map[string]spec.CustomFunc{
		"e3/clustering": func(s *spec.Scenario) (harness.TrialCtxFunc, error) {
			invBeta, err := intArg(s, "invBeta")
			if err != nil {
				return nil, err
			}
			return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				g, _ := graph.Named(tr.Family, tr.N, graphSeed)
				cl0 := cluster.DefaultConfig(g.N(), invBeta)
				base := lbnet.NewUnitNet(g, 0, tr.Seed)
				cl := cluster.Build(base, cl0, tr.Seed)
				return harness.Metrics{
					"clusters": float64(cl.NumClusters()),
					"radius":   float64(cl.Radius()),
					"cutFrac":  cluster.CutFraction(g, cl.ClusterOf),
					"maxLB":    float64(lbnet.MaxLBEnergy(base)),
					"timeLB":   float64(base.LBTime()),
				}, nil
			}, nil
		},
	})
	results := byTrial(cfg.runAll(scs...))
	tbl := stats.NewTable("MPX clustering (Lemma 2.5)",
		"family", "n", "1/β", "TMax", "clusters", "radius", "cut frac", "β", "maxLB E", "time(LB)")
	for _, in := range scs[0].Instances {
		// graph.Named may round n (e.g. grid side); recover the real size.
		g, _ := graph.Named(in.Family, in.N, graphSeed)
		for i := range f.Scenarios {
			invBeta := int(f.Scenarios[i].Args["invBeta"])
			r := results[trialKey(f.Scenarios[i].Name, in.Family, in.N, 0)]
			tbl.AddRowf(in.Family, g.N(), invBeta, cluster.DefaultConfig(g.N(), invBeta).TMax,
				r.Get("clusters"), r.Get("radius"), r.Get("cutFrac"), 1.0/float64(invBeta),
				r.Get("maxLB"), r.Get("timeLB"))
		}
	}
	tbl.Render(cfg.out)
}

// runE4 measures Lemmas 2.1-2.3 on the ideal (fractional) MPX process. The
// analysis is one deep trial (sized by scenarios/e4_ideal_mpx.json); its
// structured tables are captured through the closure (single-trial
// scenario, so there is no write race).
func runE4(cfg config) {
	var tails, ratios *stats.Table
	_, scs := cfg.loadSpec("e4_ideal_mpx.json", map[string]spec.CustomFunc{
		"e4/ideal-mpx": func(s *spec.Scenario) (harness.TrialCtxFunc, error) {
			invBeta, err := intArg(s, "invBeta")
			if err != nil {
				return nil, err
			}
			return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				g := graph.Path(tr.N)
				ideal := cluster.BuildIdeal(g, invBeta, tr.Seed)
				cg := cluster.ClusterGraphOf(g, ideal.ClusterOf, len(ideal.Center))

				// Lemma 2.1: tail of #clusters intersecting Ball(v, 1).
				counts := stats.I64s(intsTo64(cluster.BallClusterCounts(g, ideal.ClusterOf, 1)))
				beta := 1 / float64(invBeta)
				q := 1 - math.Exp(-2*beta)
				tails = stats.NewTable(fmt.Sprintf("Lemma 2.1 tail on path n=%d, 1/β=%d (bound q=%.3f)", tr.N, invBeta, q),
					"j", "P(count > j) observed", "bound q^j")
				for j := 1; j <= 6; j++ {
					exceed := 0
					for _, c := range counts {
						if c > float64(j) {
							exceed++
						}
					}
					tails.AddRowf(j, float64(exceed)/float64(len(counts)), math.Pow(q, float64(j)))
				}

				// Lemmas 2.2/2.3: ratio dist_G*(Cl(0), Cl(v)) / (β·dist_G(0, v)).
				distStar := graph.BFS(cg, ideal.ClusterOf[0])
				ratios = stats.NewTable("Lemmas 2.2/2.3 distance-proxy ratio dist*/(β·d) on the path",
					"d bucket", "samples", "min ratio", "mean ratio", "max ratio", "2.2 band", "2.3 band (large d)")
				lg := math.Log2(float64(tr.N))
				for _, bucket := range [][2]int{{8, 32}, {32, 128}, {128, 512}, {512, tr.N - 1}} {
					lo, hi := bucket[0], bucket[1]
					if lo >= tr.N {
						continue
					}
					var rs []float64
					for v := lo; v < hi && v < tr.N; v += 3 {
						d := float64(v)
						ds := float64(distStar[ideal.ClusterOf[v]])
						rs = append(rs, ds/(beta*d))
					}
					if len(rs) == 0 {
						continue
					}
					minR, maxR := rs[0], rs[0]
					for _, r := range rs {
						minR = math.Min(minR, r)
						maxR = math.Max(maxR, r)
					}
					band22 := fmt.Sprintf("[%.3f, %.1f]", 1/(8*lg), 8*lg)
					band23 := "-"
					if lo >= invBeta*int(lg*lg) {
						band23 = "O(1) factor"
					}
					ratios.AddRowf(fmt.Sprintf("[%d,%d)", lo, hi), len(rs), minR, stats.Mean(rs), maxR, band22, band23)
				}
				return harness.Metrics{"clusters": float64(len(ideal.Center))}, nil
			}, nil
		},
	})
	cfg.runAll(scs...)
	tails.Render(cfg.out)
	ratios.Render(cfg.out)
	fmt.Fprintln(cfg.out, "Lemma 2.2 predicts ratios within a Θ(log n) band for all d; Lemma 2.3 tightens")
	fmt.Fprintln(cfg.out, "it to a constant band once d = Ω(β⁻¹·log² n) — visible as shrinking spread above.")
	fmt.Fprintln(cfg.out)
}

func intsTo64(xs []int) []int64 {
	out := make([]int64, len(xs))
	for i, x := range xs {
		out[i] = int64(x)
	}
	return out
}

// runE5 measures Lemma 3.1/3.2 overheads on a one-level virtual network
// (grid size from scenarios/e5_vnet.json).
func runE5(cfg config) {
	_, scs := cfg.loadSpec("e5_vnet.json", map[string]spec.CustomFunc{
		"e5/vnet-casts": func(s *spec.Scenario) (harness.TrialCtxFunc, error) {
			invBeta, err := intArg(s, "invBeta")
			if err != nil {
				return nil, err
			}
			return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				g, _ := graph.Named(tr.Family, tr.N, tr.Seed)
				base := lbnet.NewUnitNet(g, 0, tr.Seed)
				cl0 := cluster.DefaultConfig(g.N(), invBeta)
				cl := cluster.Build(base, cl0, tr.Seed)
				vn := vnet.New(base, cl)
				nc := vn.N()

				// One full Downcast: per-vertex participation vs O(log n).
				pre := snapshot(base)
				part := make([]int32, nc)
				for c := range part {
					part[c] = int32(c)
				}
				vn.Downcast(part, nil, make([]radio.Msg, nc), make([]radio.Msg, g.N()), make([]bool, g.N()))
				spent := make([]float64, g.N())
				for v := int32(0); int(v) < g.N(); v++ {
					spent[v] = float64(base.LBEnergy(v) - pre[v])
				}
				return harness.Metrics{
					"clusters":    float64(nc),
					"contention":  float64(cl0.C),
					"subsetLen":   float64(cl0.SubsetLen),
					"castLBs":     float64(vn.CastLBs()),
					"vlbCost":     float64(vn.VLBCost()),
					"downMean":    stats.Mean(spent),
					"downMax":     stats.Max(spent),
					"subsetFails": float64(cluster.SubsetProperty(g, cl)),
					"castFails":   float64(vn.CastFailures()),
				}, nil
			}, nil
		},
	})
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

func snapshot(net lbnet.Net) []int64 {
	out := make([]int64, net.N())
	for v := int32(0); int(v) < net.N(); v++ {
		out[v] = net.LBEnergy(v)
	}
	return out
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

// runE7 measures Claims 1 and 2 on the cycle grid of
// scenarios/e7_participation.json.
func runE7(cfg config) {
	f, scs := cfg.loadSpec("e7_participation.json", map[string]spec.CustomFunc{
		"e7/participation": func(s *spec.Scenario) (harness.TrialCtxFunc, error) {
			p, err := coreArgs(s)
			if err != nil {
				return nil, err
			}
			return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				g := graph.Cycle(tr.N)
				base := lbnet.NewUnitNet(g, 0, tr.Seed)
				st, err := core.BuildStack(base, p, tr.Seed)
				if err != nil {
					return nil, err
				}
				st.Inst = core.NewInstrumentation()
				st.BFS([]int32{0}, tr.MaxDist)
				return harness.Metrics{
					"stages":     float64((tr.MaxDist + p.InvBeta - 1) / p.InvBeta),
					"maxXi":      float64(st.Inst.MaxXi(0)),
					"maxSpecial": float64(st.Inst.MaxSpecial(0)),
					"senderViol": float64(st.Inst.SenderViolations),
				}, nil
			}, nil
		},
	})
	results := cfg.runAll(scs...)
	p, _ := coreArgs(&f.Scenarios[0]) // validated by the factory above
	tbl := stats.NewTable(fmt.Sprintf("Claims 1-2: participation counters (cycles, fixed β=1/%d, w=%d)", p.InvBeta, p.W),
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

// runE8 runs the expensive Invariant 4.1 reference check across the seeds
// declared by scenarios/e8_invariant.json.
func runE8(cfg config) {
	graphSeed := rng.Derive(cfg.seed, 0xe8)
	_, scs := cfg.loadSpec("e8_invariant.json", map[string]spec.CustomFunc{
		"e8/invariant": func(s *spec.Scenario) (harness.TrialCtxFunc, error) {
			p, err := coreArgs(s)
			if err != nil {
				return nil, err
			}
			return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				g, _ := graph.Named(tr.Family, tr.N, graphSeed)
				base := lbnet.NewUnitNet(g, 0, tr.Seed)
				st, err := core.BuildStack(base, p, tr.Seed)
				if err != nil {
					return nil, err
				}
				st.Inst = core.NewInstrumentation()
				st.Inst.CheckInvariant = true
				dist := st.BFS([]int32{0}, tr.MaxDist)
				return harness.Metrics{
					"low":        float64(st.Inst.LowViolations),
					"high":       float64(st.Inst.HighViolations),
					"mislabeled": float64(core.VerifyAgainstReference(g, []int32{0}, dist, tr.MaxDist)),
				}, nil
			}, nil
		},
	})
	results := cfg.runAll(scs...)
	tbl := stats.NewTable("Invariant 4.1 reference check", "graph", "seed", "low violations (dist<L)", "high violations (dist>U)", "mislabeled")
	for _, r := range results {
		tbl.AddRowf(r.Family, r.Index, r.Get("low"), r.Get("high"), r.Get("mislabeled"))
	}
	tbl.Render(cfg.out)
}

// runE9 reproduces Figure 3: the evolution of [L, U] and the true wavefront
// distance for one cluster (instance from scenarios/e9_figure3.json). One
// instrumented trial; the trace is captured through the closure
// (single-trial scenario).
func runE9(cfg config) {
	var trace []core.TracePoint
	_, scs := cfg.loadSpec("e9_figure3.json", map[string]spec.CustomFunc{
		"e9/figure3": func(s *spec.Scenario) (harness.TrialCtxFunc, error) {
			p, err := coreArgs(s)
			if err != nil {
				return nil, err
			}
			return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				g := graph.Cycle(tr.N)
				base := lbnet.NewUnitNet(g, 0, tr.Seed)
				st, err := core.BuildStack(base, p, tr.Seed)
				if err != nil {
					return nil, err
				}
				st.Inst = core.NewInstrumentation()
				st.Inst.TraceCluster = st.VNets[0].Clustering().ClusterOf[tr.N/2]
				st.BFS([]int32{0}, tr.MaxDist)
				trace = st.Inst.Trace
				return harness.Metrics{"points": float64(len(trace))}, nil
			}, nil
		},
	})
	if res := cfg.runAll(scs...)[0]; res.Err != "" {
		fmt.Fprintln(cfg.out, "error:", res.Err)
		return
	}

	var lSeries, uSeries, tSeries []float64
	tbl := stats.NewTable("Figure 3 series (cluster of the antipodal vertex)",
		"stage", "Z[i+1]", "L_i", "U_i", "true dist to W_i")
	for _, pt := range trace {
		lv, uv := float64(pt.L), float64(pt.U)
		if pt.L < 0 {
			lv = 0
		}
		if pt.U > float64AsInt64Cap {
			uv = math.NaN()
		}
		lSeries = append(lSeries, lv)
		uSeries = append(uSeries, uv)
		tSeries = append(tSeries, float64(pt.TrueDist))
		uStr := fmt.Sprint(pt.U)
		if pt.U > float64AsInt64Cap {
			uStr = "∞"
		}
		tbl.AddRowf(pt.Stage, pt.Z, pt.L, uStr, pt.TrueDist)
	}
	tbl.Render(cfg.out)
	fmt.Fprintln(cfg.out, stats.Chart(60, 14,
		stats.Series{Name: "U_i (upper bound)", Mark: '#', Points: uSeries},
		stats.Series{Name: "true dist(W_i, C)", Mark: '*', Points: tSeries},
		stats.Series{Name: "L_i (lower bound)", Mark: '.', Points: lSeries},
	))
}

const float64AsInt64Cap = int64(1) << 40
