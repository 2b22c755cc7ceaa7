package workloads

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/lbnet"
	"repro/internal/radio"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/vnet"
)

// localBroadcast measures Lemma 2.4 (E2): one Decay Local-Broadcast of
// args.passes passes from every leaf of Star(n) to its listening center.
// hearE is reported only by trials in which the center heard, so its mean
// is the energy of a hearing receiver.
func localBroadcast(args map[string]float64) (harness.TrialCtxFunc, error) {
	passes, err := intArg(args, "passes")
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
			m["hearE"] = float64(eng.Energy(0))
		}
		return m, nil
	}, nil
}

// clustering measures Lemma 2.5 (E3): one MPX clustering with β = 1/args.invBeta
// on a unit-cost net over the run's graph of the trial's family and size.
func clustering(args map[string]float64) (harness.TrialCtxFunc, error) {
	invBeta, err := intArg(args, "invBeta")
	if err != nil {
		return nil, err
	}
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		g, err := repro.NewGraph(tr.Family, tr.N, rng.Derive(tr.Root, 0xe3))
		if err != nil {
			return nil, err
		}
		base := lbnet.NewUnitNet(g, 0, tr.Seed)
		cl := cluster.Build(base, cluster.DefaultConfig(g.N(), invBeta), tr.Seed)
		return harness.Metrics{
			"vertices": float64(g.N()),
			"clusters": float64(cl.NumClusters()),
			"radius":   float64(cl.Radius()),
			"cutFrac":  cluster.CutFraction(g, cl.ClusterOf),
			"maxLB":    float64(lbnet.MaxLBEnergy(base)),
			"timeLB":   float64(base.LBTime()),
		}, nil
	}, nil
}

// RatioBuckets lists the distance buckets [lo, hi) of the e4/ideal-mpx
// ratio table on Path(n). A bucket with no sampled vertex has no metrics.
func RatioBuckets(n int) [][2]int {
	return [][2]int{{8, 32}, {32, 128}, {128, 512}, {512, n - 1}}
}

// TailMetric names the e4/ideal-mpx metric P(count > j) of Lemma 2.1's tail.
func TailMetric(j int) string { return fmt.Sprintf("tail%d", j) }

// RatioMetric names one statistic ("samples", "min", "mean" or "max") of the
// e4/ideal-mpx ratio bucket that starts at distance lo.
func RatioMetric(lo int, stat string) string { return fmt.Sprintf("ratio%d.%s", lo, stat) }

// idealMPX measures Lemmas 2.1–2.3 (E4) on the ideal (fractional) MPX process
// over Path(n) with β = 1/args.invBeta. Besides the cluster count it reports
// Lemma 2.1's tail — the fraction of vertices whose Ball(v, 1) meets more than
// j clusters, j = 1..6 (TailMetric) — and, per RatioBuckets bucket, the
// ratio dist*(Cl(0), Cl(v)) / (β·dist(0, v)) of Lemmas 2.2/2.3 over every
// third vertex of the bucket (RatioMetric).
func idealMPX(args map[string]float64) (harness.TrialCtxFunc, error) {
	invBeta, err := intArg(args, "invBeta")
	if err != nil {
		return nil, err
	}
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		g := graph.Path(tr.N)
		ideal := cluster.BuildIdeal(g, invBeta, tr.Seed)
		cg := cluster.ClusterGraphOf(g, ideal.ClusterOf, len(ideal.Center))
		m := harness.Metrics{"clusters": float64(len(ideal.Center))}

		counts := cluster.BallClusterCounts(g, ideal.ClusterOf, 1)
		for j := 1; j <= 6; j++ {
			exceed := 0
			for _, c := range counts {
				if c > j {
					exceed++
				}
			}
			m[TailMetric(j)] = float64(exceed) / float64(len(counts))
		}

		distStar := graph.BFS(cg, ideal.ClusterOf[0])
		beta := 1 / float64(invBeta)
		for _, b := range RatioBuckets(tr.N) {
			var rs []float64
			for v := b[0]; v < b[1] && v < tr.N; v += 3 {
				rs = append(rs, float64(distStar[ideal.ClusterOf[v]])/(beta*float64(v)))
			}
			if len(rs) == 0 {
				continue
			}
			minR, maxR := rs[0], rs[0]
			for _, r := range rs {
				minR = math.Min(minR, r)
				maxR = math.Max(maxR, r)
			}
			m[RatioMetric(b[0], "samples")] = float64(len(rs))
			m[RatioMetric(b[0], "min")] = minR
			m[RatioMetric(b[0], "mean")] = stats.Mean(rs)
			m[RatioMetric(b[0], "max")] = maxR
		}
		return m, nil
	}, nil
}

// vnetCasts measures Lemmas 3.1–3.2 (E5): cast and virtual-Local-Broadcast
// durations of a one-level virtual network with β = 1/args.invBeta, and the
// per-vertex cost of one full Downcast.
func vnetCasts(args map[string]float64) (harness.TrialCtxFunc, error) {
	invBeta, err := intArg(args, "invBeta")
	if err != nil {
		return nil, err
	}
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		g, err := repro.NewGraph(tr.Family, tr.N, tr.Seed)
		if err != nil {
			return nil, err
		}
		base := lbnet.NewUnitNet(g, 0, tr.Seed)
		cl0 := cluster.DefaultConfig(g.N(), invBeta)
		cl := cluster.Build(base, cl0, tr.Seed)
		vn := vnet.New(base, cl)
		nc := vn.N()

		pre := make([]int64, g.N())
		for v := range pre {
			pre[v] = base.LBEnergy(int32(v))
		}
		part := make([]int32, nc)
		for c := range part {
			part[c] = int32(c)
		}
		vn.Downcast(part, nil, make([]radio.Msg, nc), make([]radio.Msg, g.N()), make([]bool, g.N()))
		spent := make([]float64, g.N())
		for v := range spent {
			spent[v] = float64(base.LBEnergy(int32(v)) - pre[v])
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
}

// participation measures Claims 1–2 (E7): the largest per-vertex X_i count
// and per-cluster Special Update count of one Recursive-BFS on Cycle(n).
func participation(args map[string]float64) (harness.TrialCtxFunc, error) {
	p, err := coreArgs(args)
	if err != nil {
		return nil, err
	}
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		base := lbnet.NewUnitNet(graph.Cycle(tr.N), 0, tr.Seed)
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
}

// invariant runs Invariant 4.1's reference check (E8) during one
// Recursive-BFS on the run's graph of the trial's family and size.
func invariant(args map[string]float64) (harness.TrialCtxFunc, error) {
	p, err := coreArgs(args)
	if err != nil {
		return nil, err
	}
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		g, err := repro.NewGraph(tr.Family, tr.N, rng.Derive(tr.Root, 0xe8))
		if err != nil {
			return nil, err
		}
		st, err := core.BuildStack(lbnet.NewUnitNet(g, 0, tr.Seed), p, tr.Seed)
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
}

// TraceMetric names one field ("Z", "L", "U" or "dist") of stage i of the
// e9/figure3 trace.
func TraceMetric(field string, i int) string { return fmt.Sprintf("%s.%03d", field, i) }

// figure3 reproduces Figure 3 (E9): the [L, U] window and the true wavefront
// distance of the cluster of vertex n/2 at every stage of one Recursive-BFS
// on Cycle(n). "points" counts the stages; stage i reports Z[i+1], L_i, U_i
// and the true distance (-1 = unreachable) under TraceMetric.
func figure3(args map[string]float64) (harness.TrialCtxFunc, error) {
	p, err := coreArgs(args)
	if err != nil {
		return nil, err
	}
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		base := lbnet.NewUnitNet(graph.Cycle(tr.N), 0, tr.Seed)
		st, err := core.BuildStack(base, p, tr.Seed)
		if err != nil {
			return nil, err
		}
		st.Inst = core.NewInstrumentation()
		st.Inst.TraceCluster = st.VNets[0].Clustering().ClusterOf[tr.N/2]
		st.BFS([]int32{0}, tr.MaxDist)
		m := harness.Metrics{"points": float64(len(st.Inst.Trace))}
		for i, pt := range st.Inst.Trace {
			m[TraceMetric("Z", i)] = float64(pt.Z)
			m[TraceMetric("L", i)] = float64(pt.L)
			m[TraceMetric("U", i)] = float64(pt.U)
			m[TraceMetric("dist", i)] = float64(pt.TrueDist)
		}
		return m, nil
	}, nil
}
