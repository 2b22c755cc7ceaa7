package repro_test

// Benchmarks: one per experiment table of the reproduction. Each reports,
// beyond wall time, the paper's own cost metrics via b.ReportMetric —
// energy in Local-Broadcast units (LB/vertex) and time in LB calls — so
// `go test -bench` regenerates the quantitative shape of every claim.
//
// Workloads are declared as harness.Scenario values — the form every spec
// `radiobfs run` executes compiles to — and every iteration
// executes one harness trial, with the iteration counter as the trial
// index, so each iteration draws fresh derived randomness.

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/diameter"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/lbnet"
	"repro/internal/lowerbound"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/vnet"
)

// execTrial runs trial i of one scenario instance through the harness on a
// pooled worker context — the same execution path a sweep worker uses — and
// fails the benchmark on any trial error.
func execTrial(b *testing.B, ctx *harness.Context, sc *harness.Scenario, inst harness.Instance, i int) harness.Result {
	b.Helper()
	res := harness.ExecuteCtx(ctx, sc, harness.TrialFor(sc, inst, i, 1))
	if res.Err != "" {
		b.Fatal(res.Err)
	}
	return res
}

// requireExact fails the benchmark when a trial mislabeled any vertex.
func requireExact(b *testing.B, r harness.Result) {
	b.Helper()
	if bad := r.Metrics["mislabeled"]; bad != 0 {
		b.Fatalf("%v mislabeled", bad)
	}
}

// BenchmarkRegistry runs every registered algorithm on one shared small
// instance through the harness's registry dispatch — the same path sweeps
// use. The suite is enumerated from repro.Algorithms(), so a newly
// registered algorithm gets a tracked benchmark without touching this file.
func BenchmarkRegistry(b *testing.B) {
	ctx := harness.NewContext()
	for _, alg := range repro.Algorithms() {
		sc := &harness.Scenario{
			Name:      "bench-registry-" + alg.Name(),
			Instances: []harness.Instance{{Family: "grid", N: 49}},
			Algo:      harness.Algo(alg.Name()),
		}
		inst := sc.Instances[0]
		b.Run(alg.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				execTrial(b, ctx, sc, inst, i)
			}
		})
	}
}

// BenchmarkE1RecursiveBFS measures Theorem 4.1's algorithm end to end with
// fixed machinery (β = 1/8, one clustering level) so the scaling across n is
// apples-to-apples; BenchmarkAblationDepth/Beta sweep the design choices.
func BenchmarkE1RecursiveBFS(b *testing.B) {
	ctx := harness.NewContext()
	p := core.Params{InvBeta: 8, Depth: 1, W: 24, Alpha: 4}
	sc := &harness.Scenario{
		Name:      "bench-E1-rec",
		Instances: harness.Cross([]string{"cycle"}, []int{128, 256, 512}, func(_ string, n int) int { return n / 2 }),
		Algo:      harness.AlgoRecursive,
		Params:    &p,
	}
	for _, inst := range sc.Instances {
		b.Run(fmt.Sprintf("%s/n=%d", inst.Family, inst.N), func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				last = execTrial(b, ctx, sc, inst, i)
				requireExact(b, last)
			}
			b.ReportMetric(last.Metrics["maxLB"], "LBenergy/vtx")
			b.ReportMetric(last.Metrics["timeLB"], "LBtime")
		})
	}
}

// BenchmarkE1DecayBFS is the Θ(D log² n)-energy baseline on real radio slots.
func BenchmarkE1DecayBFS(b *testing.B) {
	ctx := harness.NewContext()
	sc := &harness.Scenario{
		Name:      "bench-E1-decay",
		Instances: harness.Cross([]string{"cycle"}, []int{128, 256, 512}, nil),
		Algo:      harness.AlgoDecay,
		Passes:    8, // fixed across n so the scaling is apples-to-apples
	}
	for _, inst := range sc.Instances {
		b.Run(fmt.Sprintf("%s/n=%d", inst.Family, inst.N), func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				last = execTrial(b, ctx, sc, inst, i)
				requireExact(b, last)
			}
			b.ReportMetric(last.Metrics["physMax"], "slots/vtx")
		})
	}
}

// BenchmarkE2LocalBroadcast measures Lemma 2.4 under heavy contention.
func BenchmarkE2LocalBroadcast(b *testing.B) {
	ctx := harness.NewContext()
	for _, deg := range []int{16, 128} {
		// Graph and sender list are trial-invariant: build once per
		// sub-benchmark so each trial times only the Local-Broadcast.
		g := graph.Star(deg + 1)
		p := decay.ParamsFor(deg+1, 8)
		senders := make([]radio.TX, 0, deg)
		for v := 1; v <= deg; v++ {
			senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v)}})
		}
		got := make([]radio.Msg, 1)
		ok := make([]bool, 1)
		sc := &harness.Scenario{
			Name:      fmt.Sprintf("bench-E2-deg%d", deg),
			Instances: []harness.Instance{{Family: "star", N: deg + 1}},
			RunCtx: func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				eng := radio.NewEngine(g)
				new(decay.Scratch).LocalBroadcast(eng, p, senders, []int32{0}, rng.Derive(tr.Seed, 0xb2), got, ok)
				return harness.Metrics{"ok": harness.BoolMetric(ok[0])}, nil
			},
		}
		inst := sc.Instances[0]
		b.Run(fmt.Sprintf("deg=%d", deg), func(b *testing.B) {
			miss := 0
			for i := 0; i < b.N; i++ {
				if execTrial(b, ctx, sc, inst, i).Metrics["ok"] != 1 {
					miss++
				}
			}
			b.ReportMetric(float64(miss)/float64(b.N), "failrate")
		})
	}
}

// BenchmarkE3Cluster measures Lemma 2.5's construction.
func BenchmarkE3Cluster(b *testing.B) {
	ctx := harness.NewContext()
	for _, n := range []int{256, 1024} {
		g, _ := graph.Named("grid", n, 1)
		cfg := cluster.DefaultConfig(g.N(), 8)
		sc := &harness.Scenario{
			Name:      fmt.Sprintf("bench-E3-n%d", n),
			Instances: []harness.Instance{{Family: "grid", N: n}},
			RunCtx: func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				base := lbnet.NewUnitNet(g, 0, tr.Seed)
				cl := cluster.Build(base, cfg, tr.Seed)
				return harness.Metrics{"radius": float64(cl.Radius()), "TMax": float64(cfg.TMax)}, nil
			},
		}
		inst := sc.Instances[0]
		b.Run(fmt.Sprintf("grid/n=%d", n), func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				last = execTrial(b, ctx, sc, inst, i)
			}
			b.ReportMetric(last.Metrics["radius"], "radius")
			b.ReportMetric(last.Metrics["TMax"], "TMax")
		})
	}
}

// BenchmarkE4DistanceProxy measures the Lemma 2.2/2.3 machinery (ideal MPX
// plus cluster-graph BFS).
func BenchmarkE4DistanceProxy(b *testing.B) {
	ctx := harness.NewContext()
	g := graph.Path(2048)
	sc := &harness.Scenario{
		Name:      "bench-E4",
		Instances: []harness.Instance{{Family: "path", N: g.N()}},
		RunCtx: func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
			ideal := cluster.BuildIdeal(g, 8, tr.Seed)
			cg := cluster.ClusterGraphOf(g, ideal.ClusterOf, len(ideal.Center))
			graph.BFS(cg, ideal.ClusterOf[0])
			return harness.Metrics{"clusters": float64(len(ideal.Center))}, nil
		},
	}
	inst := sc.Instances[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execTrial(b, ctx, sc, inst, i)
	}
}

// BenchmarkE5Casts measures one full Downcast (Lemma 3.1) on a prebuilt
// virtual network: the setup is shared, each trial is a single Downcast.
func BenchmarkE5Casts(b *testing.B) {
	ctx := harness.NewContext()
	g, _ := graph.Named("grid", 400, 1)
	base := lbnet.NewUnitNet(g, 0, 1)
	cl := cluster.Build(base, cluster.DefaultConfig(g.N(), 4), 1)
	vn := vnet.New(base, cl)
	nc := vn.N()
	part := make([]int32, nc)
	msgs := make([]radio.Msg, nc)
	for c := range part {
		part[c] = int32(c)
	}
	memberGot := make([]radio.Msg, g.N())
	memberOk := make([]bool, g.N())
	sc := &harness.Scenario{
		Name:      "bench-E5-cast",
		Instances: []harness.Instance{{Family: "grid", N: g.N()}},
		RunCtx: func(*harness.Context, harness.Trial) (harness.Metrics, error) {
			vn.Downcast(part, nil, msgs, memberGot, memberOk)
			return harness.Metrics{"parentLBs": float64(vn.CastLBs())}, nil
		},
	}
	inst := sc.Instances[0]
	b.ResetTimer()
	var last harness.Result
	for i := 0; i < b.N; i++ {
		last = execTrial(b, ctx, sc, inst, i)
	}
	b.ReportMetric(last.Metrics["parentLBs"], "parentLBs")
}

// BenchmarkE5VirtualLB measures one simulated Local-Broadcast on G*
// (Lemma 3.2).
func BenchmarkE5VirtualLB(b *testing.B) {
	ctx := harness.NewContext()
	g, _ := graph.Named("grid", 400, 1)
	base := lbnet.NewUnitNet(g, 0, 1)
	cl := cluster.Build(base, cluster.DefaultConfig(g.N(), 4), 1)
	vn := vnet.New(base, cl)
	if vn.N() < 2 {
		b.Skip("degenerate clustering")
	}
	senders := []radio.TX{{ID: 0, Msg: radio.Msg{A: 1}}}
	receivers := []int32{1}
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	sc := &harness.Scenario{
		Name:      "bench-E5-vlb",
		Instances: []harness.Instance{{Family: "grid", N: g.N()}},
		RunCtx: func(*harness.Context, harness.Trial) (harness.Metrics, error) {
			vn.LocalBroadcast(senders, receivers, got, ok)
			return harness.Metrics{"parentLBs": float64(vn.VLBCost())}, nil
		},
	}
	inst := sc.Instances[0]
	b.ResetTimer()
	var last harness.Result
	for i := 0; i < b.N; i++ {
		last = execTrial(b, ctx, sc, inst, i)
	}
	b.ReportMetric(last.Metrics["parentLBs"], "parentLBs")
}

// BenchmarkE7Claims measures the instrumented Recursive-BFS used for the
// Claim 1/2 counters.
func BenchmarkE7Claims(b *testing.B) {
	ctx := harness.NewContext()
	g := graph.Cycle(256)
	sc := &harness.Scenario{
		Name:      "bench-E7",
		Instances: []harness.Instance{{Family: "cycle", N: g.N(), MaxDist: 128}},
		RunCtx: func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
			base := lbnet.NewUnitNet(g, 0, tr.Seed)
			st, err := core.BuildStack(base, core.Params{InvBeta: 8, Depth: 1, W: 24, Alpha: 4}, tr.Seed)
			if err != nil {
				return nil, err
			}
			st.Inst = core.NewInstrumentation()
			st.BFS([]int32{0}, tr.MaxDist)
			return harness.Metrics{
				"maxXi":      float64(st.Inst.MaxXi(0)),
				"maxSpecial": float64(st.Inst.MaxSpecial(0)),
			}, nil
		},
	}
	inst := sc.Instances[0]
	var last harness.Result
	for i := 0; i < b.N; i++ {
		last = execTrial(b, ctx, sc, inst, i)
	}
	b.ReportMetric(last.Metrics["maxXi"], "maxXi")
	b.ReportMetric(last.Metrics["maxSpecial"], "maxSpecial")
}

// BenchmarkE10GoodPairs measures the Theorem 5.1 probing protocols.
func BenchmarkE10GoodPairs(b *testing.B) {
	ctx := harness.NewContext()
	inst := harness.Instance{Family: "complete-e", N: 64}
	g := graph.CompleteMinusEdge(inst.N, 1, 2)
	b.Run("roundrobin", func(b *testing.B) {
		sc := &harness.Scenario{
			Name:      "bench-E10-rr",
			Instances: []harness.Instance{inst},
			RunCtx: func(*harness.Context, harness.Trial) (harness.Metrics, error) {
				res := lowerbound.RoundRobinProbe(g)
				if !res.Detected {
					return nil, fmt.Errorf("missed edge")
				}
				return harness.Metrics{"maxEnergy": float64(res.MaxEnergy)}, nil
			},
		}
		var last harness.Result
		for i := 0; i < b.N; i++ {
			last = execTrial(b, ctx, sc, inst, i)
		}
		b.ReportMetric(last.Metrics["maxEnergy"], "slots/vtx")
	})
	b.Run("budget=8", func(b *testing.B) {
		sc := &harness.Scenario{
			Name:      "bench-E10-budget",
			Instances: []harness.Instance{inst},
			RunCtx: func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				lowerbound.BudgetedProbe(g, 8, tr.Seed)
				return harness.Metrics{}, nil
			},
		}
		for i := 0; i < b.N; i++ {
			execTrial(b, ctx, sc, inst, i)
		}
	})
}

// BenchmarkE11Disjointness measures the Theorem 5.2 construction + check.
func BenchmarkE11Disjointness(b *testing.B) {
	ctx := harness.NewContext()
	var evens, odds []uint64
	for x := 0; x < 128; x++ {
		if x%2 == 0 {
			evens = append(evens, uint64(x))
		} else {
			odds = append(odds, uint64(x))
		}
	}
	sc := &harness.Scenario{
		Name:      "bench-E11",
		Instances: []harness.Instance{{Family: "setdisj", N: 128, MaxDist: 7}},
		RunCtx: func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
			d := lowerbound.BuildDisjointness(evens, odds, tr.MaxDist)
			if graph.Diameter(d.G) != 2 {
				return nil, fmt.Errorf("diameter property violated")
			}
			return harness.Metrics{}, nil
		},
	}
	inst := sc.Instances[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		execTrial(b, ctx, sc, inst, i)
	}
}

// BenchmarkE12TwoApprox measures Theorem 5.3's 2-approximation.
func BenchmarkE12TwoApprox(b *testing.B) {
	ctx := harness.NewContext()
	p := core.Params{InvBeta: 4, Depth: 1, W: 24, Alpha: 4}
	sc := &harness.Scenario{
		Name:      "bench-E12",
		Instances: []harness.Instance{{Family: "cycle", N: 128}},
		Algo:      harness.AlgoDiam2,
		Params:    &p,
	}
	inst := sc.Instances[0]
	var last harness.Result
	for i := 0; i < b.N; i++ {
		last = execTrial(b, ctx, sc, inst, i)
	}
	b.ReportMetric(last.Metrics["estimate"], "estimate")
	b.ReportMetric(last.Metrics["maxLB"], "LBenergy/vtx")
}

// BenchmarkE13ThreeHalves measures Theorem 5.4 (radio at n=48, mirror at
// n=1024).
func BenchmarkE13ThreeHalves(b *testing.B) {
	ctx := harness.NewContext()
	b.Run("radio/n=48", func(b *testing.B) {
		p := core.Params{InvBeta: 4, Depth: 1, W: 24, Alpha: 4}
		sc := &harness.Scenario{
			Name:      "bench-E13-radio",
			Instances: []harness.Instance{{Family: "path", N: 48}},
			Algo:      harness.AlgoDiam32,
			Params:    &p,
		}
		inst := sc.Instances[0]
		for i := 0; i < b.N; i++ {
			execTrial(b, ctx, sc, inst, i)
		}
	})
	b.Run("mirror/n=1024", func(b *testing.B) {
		g := graph.Cycle(1024)
		sc := &harness.Scenario{
			Name:      "bench-E13-mirror",
			Instances: []harness.Instance{{Family: "cycle", N: g.N()}},
			RunCtx: func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
				res := diameter.MirrorThreeHalves(g, tr.Seed)
				if res.Estimate > 512 || res.Estimate < 341 {
					return nil, fmt.Errorf("estimate %d out of band", res.Estimate)
				}
				return harness.Metrics{}, nil
			},
		}
		inst := sc.Instances[0]
		for i := 0; i < b.N; i++ {
			execTrial(b, ctx, sc, inst, i)
		}
	})
}

// BenchmarkE14LabelCast measures the duty-cycled dissemination trade-off
// through the harness's built-in poll workload.
func BenchmarkE14LabelCast(b *testing.B) {
	ctx := harness.NewContext()
	for _, period := range []int{1, 8} {
		sc := &harness.Scenario{
			Name:      fmt.Sprintf("bench-E14-P%d", period),
			Instances: []harness.Instance{{Family: "geometric", N: 256}},
			Algo:      harness.AlgoPoll,
			Period:    period,
		}
		inst := sc.Instances[0]
		b.Run(fmt.Sprintf("P=%d", period), func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				last = execTrial(b, ctx, sc, inst, i)
				if last.Metrics["delivered"] != 1 {
					b.Fatal("not delivered")
				}
			}
			b.ReportMetric(last.Metrics["maxLB"], "LBenergy/vtx")
		})
	}
}

// BenchmarkAblationDepth sweeps the recursion depth at fixed n — each level
// multiplies overhead by polylog factors while dividing the effective
// radius, so at simulable n the energy rises with depth even though the
// asymptotics eventually reverse it.
func BenchmarkAblationDepth(b *testing.B) {
	ctx := harness.NewContext()
	for _, depth := range []int{0, 1, 2} {
		p := core.Params{InvBeta: 8, Depth: depth, W: 21, Alpha: 4}
		sc := &harness.Scenario{
			Name:      fmt.Sprintf("bench-ablation-depth%d", depth),
			Instances: []harness.Instance{{Family: "cycle", N: 128, MaxDist: 64}},
			Algo:      harness.AlgoRecursive,
			Params:    &p,
		}
		inst := sc.Instances[0]
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				last = execTrial(b, ctx, sc, inst, i)
				requireExact(b, last)
			}
			b.ReportMetric(last.Metrics["maxLB"], "LBenergy/vtx")
		})
	}
}

// BenchmarkStackDepth2 runs Recursive-BFS at depth 2, where the level-2
// search runs on a VNet over a VNet, so every level-1 Local-Broadcast is
// three level-0 casts plus one base Local-Broadcast: the regime whose cost
// tracks how little work each cast and stage does for vertices that sleep.
func BenchmarkStackDepth2(b *testing.B) {
	ctx := harness.NewContext()
	p := core.Params{InvBeta: 4, Depth: 2, W: 8, Alpha: 4}
	sc := &harness.Scenario{
		Name:      "bench-stack-depth2",
		Instances: []harness.Instance{{Family: "path", N: 512, MaxDist: 32}},
		Algo:      harness.AlgoRecursive,
		Params:    &p,
	}
	inst := sc.Instances[0]
	var last harness.Result
	for i := 0; i < b.N; i++ {
		last = execTrial(b, ctx, sc, inst, i)
		requireExact(b, last)
	}
	b.ReportMetric(last.Metrics["maxLB"], "LBenergy/vtx")
}

// BenchmarkAblationBeta sweeps 1/β at one clustering level: small β means
// few, large clusters (cheap stages, expensive casts); large β the reverse.
func BenchmarkAblationBeta(b *testing.B) {
	ctx := harness.NewContext()
	for _, invB := range []int{2, 4, 8, 16, 32} {
		p := core.Params{InvBeta: invB, Depth: 1, W: 24, Alpha: 4}
		sc := &harness.Scenario{
			Name:      fmt.Sprintf("bench-ablation-beta%d", invB),
			Instances: []harness.Instance{{Family: "cycle", N: 256, MaxDist: 128}},
			Algo:      harness.AlgoRecursive,
			Params:    &p,
		}
		inst := sc.Instances[0]
		b.Run(fmt.Sprintf("invBeta=%d", invB), func(b *testing.B) {
			var last harness.Result
			for i := 0; i < b.N; i++ {
				last = execTrial(b, ctx, sc, inst, i)
				requireExact(b, last)
			}
			b.ReportMetric(last.Metrics["maxLB"], "LBenergy/vtx")
		})
	}
}

// BenchmarkEngineStep measures the physics core itself: the engine is built
// once and each trial is a single slot step.
func BenchmarkEngineStep(b *testing.B) {
	g := graph.Grid(64, 64)
	eng := radio.NewEngine(g)
	tx := []radio.TX{{ID: 2000, Msg: radio.Msg{A: 1}}}
	listeners := []int32{2001, 2064, 1936}
	out := make([]radio.RX, len(listeners))
	sc := &harness.Scenario{
		Name:      "bench-engine-step",
		Instances: []harness.Instance{{Family: "grid", N: g.N()}},
		RunCtx: func(*harness.Context, harness.Trial) (harness.Metrics, error) {
			eng.Step(tx, listeners, out)
			return harness.Metrics{}, nil
		},
	}
	// The step is ~µs-scale and seed-independent: precompute the trial so
	// each iteration times Execute + Step, not seed derivation.
	tr := harness.TrialFor(sc, sc.Instances[0], 0, 1)
	ctx := harness.NewContext()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := harness.ExecuteCtx(ctx, sc, tr); res.Err != "" {
			b.Fatal(res.Err)
		}
	}
}

// BenchmarkScaleStep measures one physical slot in the million-vertex
// regime the scale suite exercises: a 1024-vertex frontier transmits while
// every other vertex listens on a random tree with n = 2²⁰.
func BenchmarkScaleStep(b *testing.B) {
	n := 1 << 20
	g := graph.RandomTree(n, rng.New(1))
	isTx := make([]bool, n)
	var tx []radio.TX
	for i := 0; i < 1024; i++ {
		v := int32(i * (n / 1024))
		isTx[v] = true
		tx = append(tx, radio.TX{ID: v, Msg: radio.Msg{Kind: 1, A: uint64(v)}})
	}
	var listeners []int32
	for v := 0; v < n; v++ {
		if !isTx[v] {
			listeners = append(listeners, int32(v))
		}
	}
	out := make([]radio.RX, len(listeners))
	eng := radio.NewEngine(g)
	b.Run("n=1M", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.Step(tx, listeners, out)
		}
	})
}

// BenchmarkScaleDecayTrial measures one full scale-suite trial — seeded
// graph build plus Decay BFS on the physical channel at n = 2²⁰ — through
// the pooled worker context, as one worker of the Runner executes it.
func BenchmarkScaleDecayTrial(b *testing.B) {
	sc := &harness.Scenario{
		Name:      "bench-scale-decay",
		Algo:      harness.AlgoDecay,
		Passes:    2,
		Instances: []harness.Instance{{Family: "tree", N: 1 << 20, MaxDist: 4}},
	}
	inst := sc.Instances[0]
	ctx := harness.NewContext()
	b.Run("n=1M", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			execTrial(b, ctx, sc, inst, i)
		}
	})
}

// BenchmarkSeededGraphBuild measures the per-trial topology rebuild of a
// seeded-family sweep at scale: the pooled worker-context path (one builder
// Reset per trial) against a cold build per trial, and G(n, p) at n = 2¹⁷
// through a pooled context, the per-trial build of the scale-physics
// benchmark workload.
func BenchmarkSeededGraphBuild(b *testing.B) {
	n := 1 << 20
	b.Run("pooled", func(b *testing.B) {
		ctx := harness.NewContext()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Graph("tree", n, uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fresh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := repro.NewGraph("tree", n, uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("gnp", func(b *testing.B) {
		ctx := harness.NewContext()
		for i := 0; i < b.N; i++ {
			if _, err := ctx.Graph("gnp", 1<<17, uint64(i+1)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineStepRaw measures one bare physics step with allocation
// tracking. Its shape is a case of TestEngineStepZeroAllocs
// (internal/radio), which pins it at zero allocations: the guarantee that
// simulation cost is activity-proportional, not GC-bound.
func BenchmarkEngineStepRaw(b *testing.B) {
	g := graph.Grid(64, 64)
	eng := radio.NewEngine(g)
	tx := []radio.TX{{ID: 2000, Msg: radio.Msg{A: 1}}}
	listeners := []int32{2001, 2064, 1936}
	out := make([]radio.RX, len(listeners))
	eng.Step(tx, listeners, out) // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Step(tx, listeners, out)
	}
}

// BenchmarkVNetVirtualLBRaw measures one simulated Local-Broadcast on G*
// over warmed VNet scratch; TestVirtualLocalBroadcastZeroAllocs
// (internal/vnet) pins the same shape at zero allocations.
func BenchmarkVNetVirtualLBRaw(b *testing.B) {
	g, _ := graph.Named("grid", 400, 1)
	base := lbnet.NewUnitNet(g, 0, 1)
	cl := cluster.Build(base, cluster.DefaultConfig(g.N(), 4), 1)
	vn := vnet.New(base, cl)
	if vn.N() < 2 {
		b.Skip("degenerate clustering")
	}
	senders := []radio.TX{{ID: 0, Msg: radio.Msg{A: 1}}}
	receivers := []int32{1}
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	vn.LocalBroadcast(senders, receivers, got, ok) // warm scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vn.LocalBroadcast(senders, receivers, got, ok)
	}
}

// BenchmarkDecayLocalBroadcastRaw measures one physical-channel Decay
// Local-Broadcast on warmed scratch; TestLocalBroadcastScratchZeroAllocs
// (internal/decay) pins the same shape at zero allocations.
func BenchmarkDecayLocalBroadcastRaw(b *testing.B) {
	g := graph.Star(129)
	eng := radio.NewEngine(g)
	p := decay.ParamsFor(g.N(), 8)
	senders := make([]radio.TX, 0, 128)
	for v := 1; v <= 128; v++ {
		senders = append(senders, radio.TX{ID: int32(v), Msg: radio.Msg{A: uint64(v)}})
	}
	receivers := []int32{0}
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	var s decay.Scratch
	s.LocalBroadcast(eng, p, senders, receivers, rng.Derive(1, 0), got, ok) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.LocalBroadcast(eng, p, senders, receivers, rng.Derive(1, uint64(i+1)), got, ok)
	}
}

// BenchmarkLocalBroadcastWindow measures one physical-channel Decay
// Local-Broadcast (2 passes, as scale-physics runs them) on
// ConnectedGNP(2^15) in the two shapes of a Decay BFS wavefront: a few
// senders with everyone else listening, whose rows come from the senders'
// adjacency, and the widest BFS layer sending to the few vertices beyond
// it, whose rows come from those listeners' adjacency.
func BenchmarkLocalBroadcastWindow(b *testing.B) {
	n := 1 << 15
	g, _ := graph.Named("gnp", n, 1)
	dist := graph.BFS(g, 0)
	width := map[int32]int{}
	wide := int32(0)
	for _, d := range dist {
		if width[d]++; width[d] > width[wide] {
			wide = d
		}
	}
	var few, layer, beyond, rest []int32
	for v, d := range dist {
		switch {
		case d == wide:
			layer = append(layer, int32(v))
		case d > wide:
			beyond = append(beyond, int32(v))
		}
		if v < 8 {
			few = append(few, int32(v))
		} else {
			rest = append(rest, int32(v))
		}
	}
	p := decay.ParamsFor(n, 2)
	for _, shape := range []struct {
		name      string
		senders   []int32
		receivers []int32
	}{
		{"few-to-all", few, rest},
		{"layer-to-few", layer, beyond},
	} {
		senders := make([]radio.TX, len(shape.senders))
		for i, v := range shape.senders {
			senders[i] = radio.TX{ID: v, Msg: radio.Msg{Kind: 1, A: uint64(v)}}
		}
		got := make([]radio.Msg, len(shape.receivers))
		ok := make([]bool, len(shape.receivers))
		eng := radio.NewEngine(g)
		var s decay.Scratch
		s.LocalBroadcast(eng, p, senders, shape.receivers, rng.Derive(1, 0), got, ok) // warm
		b.Run(fmt.Sprintf("%s/S=%d/R=%d", shape.name, len(senders), len(shape.receivers)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.LocalBroadcast(eng, p, senders, shape.receivers, rng.Derive(1, uint64(i+1)), got, ok)
			}
		})
	}
}

// BenchmarkReferenceBFS measures the sequential reference BFS that every
// Check and the connectivity test of a G(n,p) build run, at n = 2^15 on
// G(n,p), whose wide middle level the bottom-up direction walks from the
// few unreached vertices, and on a grid, whose levels stay narrow.
func BenchmarkReferenceBFS(b *testing.B) {
	for _, family := range []string{"gnp", "grid"} {
		g, _ := graph.Named(family, 1<<15, 1)
		b.Run(fmt.Sprintf("%s/n=%d", family, g.N()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				graph.BFS(g, int32(i%g.N()))
			}
		})
	}
}

// BenchmarkVerifyGradient measures the polylog labeling verifier.
func BenchmarkVerifyGradient(b *testing.B) {
	ctx := harness.NewContext()
	g := graph.Cycle(512)
	labels := graph.BFS(g, 0)
	sc := &harness.Scenario{
		Name:      "bench-verify-gradient",
		Instances: []harness.Instance{{Family: "cycle", N: 512}},
		RunCtx: func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
			net := lbnet.NewUnitNet(g, 0, tr.Seed)
			if viol := core.VerifyGradient(net, labels, tr.N).Violations; viol != 0 {
				return nil, fmt.Errorf("%d violations", viol)
			}
			return harness.Metrics{}, nil
		},
	}
	inst := sc.Instances[0]
	for i := 0; i < b.N; i++ {
		execTrial(b, ctx, sc, inst, i)
	}
}
