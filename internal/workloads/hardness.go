package workloads

import (
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/diameter"
	"repro/internal/graph"
	"repro/internal/harness"
	"repro/internal/labelcast"
	"repro/internal/lbnet"
	"repro/internal/lowerbound"
	"repro/internal/progress"
	"repro/internal/rng"
)

// budgetedProbe measures Theorem 5.1 (E10): whether a probe with a
// per-vertex budget of args.budget transmissions detects the missing edge of
// K_n−e, and whether the proof's counting identity |X_good| ≤ 2·energy holds
// on its transcript. The missing edge is the trial's hidden instance, drawn
// uniformly from the trial seed like the theorem's adversary.
func budgetedProbe(args map[string]float64) (harness.TrialCtxFunc, error) {
	budget, err := intArg(args, "budget")
	if err != nil {
		return nil, err
	}
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		if tr.N < 2 {
			return nil, fmt.Errorf("K_n−e needs n >= 2, got n = %d", tr.N)
		}
		r := rng.New(rng.Derive(tr.Seed, 0xe10))
		u := int32(r.Intn(tr.N))
		v := int32(r.Intn(tr.N))
		for v == u {
			v = int32(r.Intn(tr.N))
		}
		res := lowerbound.BudgetedProbe(graph.CompleteMinusEdge(tr.N, u, v), budget, rng.Derive(tr.Seed, 0x9b))
		return harness.Metrics{
			"detected": harness.BoolMetric(res.Detected),
			"holds":    harness.BoolMetric(res.Stats.BoundHolds()),
		}, nil
	}, nil
}

// setDisjointness checks Theorem 5.2's construction (E11) for k = n and
// ℓ = maxDist: the graph of two disjoint sets (evens, odds) has diameter 2,
// that of intersecting sets diameter 3; it also reports the degeneracy and
// the reduction's bits per listener round.
func setDisjointness(map[string]float64) (harness.TrialCtxFunc, error) {
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		ell, k := tr.MaxDist, tr.N
		var evens, odds []uint64
		for x := 0; x < k; x++ {
			if x%2 == 0 {
				evens = append(evens, uint64(x))
			} else {
				odds = append(odds, uint64(x))
			}
		}
		r := rng.New(rng.Derive(tr.Seed, 0xe11))
		inter := append(append([]uint64(nil), odds...), evens[r.Intn(len(evens))])
		dDisj := lowerbound.BuildDisjointness(evens, odds, ell)
		dInt := lowerbound.BuildDisjointness(evens, inter, ell)
		bits := dDisj.ReductionBits([][]int32{append(append([]int32{dDisj.UStar, dDisj.VStar}, dDisj.VC...), dDisj.VD...)})
		return harness.Metrics{
			"vertices":   float64(dDisj.G.N()),
			"diamDisj":   float64(graph.Diameter(dDisj.G)),
			"diamInt":    float64(graph.Diameter(dInt.G)),
			"degeneracy": float64(graph.Degeneracy(dDisj.G)),
			"bits":       float64(bits),
		}, nil
	}, nil
}

// diam32Radio runs Theorem 5.4's nearly-3/2 diameter approximation (E13) on
// the full radio stack over the run's graph of the trial's family and size.
func diam32Radio(map[string]float64) (harness.TrialCtxFunc, error) {
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		g, err := repro.NewGraph(tr.Family, tr.N, rng.Derive(tr.Root, 0xe13))
		if err != nil {
			return nil, err
		}
		diam := graph.Diameter(g)
		base := lbnet.NewUnitNet(g, 0, tr.Seed)
		st, err := core.BuildStack(base, core.Params{InvBeta: 4, Depth: 1, W: 24, Alpha: 4}, tr.Seed)
		if err != nil {
			return nil, err
		}
		res := diameter.ThreeHalvesApprox(st, diameter.Designated(), g.N(), tr.Seed)
		return harness.Metrics{
			"estimate":   float64(res.Estimate),
			"diam":       float64(diam),
			"inBand":     harness.BoolMetric(res.Estimate >= diam*2/3 && res.Estimate <= diam),
			"sampleSize": float64(res.SampleSize),
			"rSize":      float64(res.RSize),
			"bfsRuns":    float64(res.BFSRuns),
			"maxLB":      float64(lbnet.MaxLBEnergy(base)),
		}, nil
	}, nil
}

// diam32Mirror runs the centralized mirror of Theorem 5.4's sampling
// algorithm (E13) at sizes the radio stack cannot reach. The graph is fixed
// per run and cell; the trials sample the algorithm's own randomness, as in
// the theorem's probability statement.
func diam32Mirror(map[string]float64) (harness.TrialCtxFunc, error) {
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		g, err := repro.NewGraph(tr.Family, tr.N, rng.Derive(tr.Root, 0xe13))
		if err != nil {
			return nil, err
		}
		diam := graph.Diameter(g)
		res := diameter.MirrorThreeHalves(g, tr.Seed)
		return harness.Metrics{
			"estimate": float64(res.Estimate),
			"diam":     float64(diam),
			"bandLow":  float64(diam * 2 / 3),
			"inBand":   harness.BoolMetric(res.Estimate >= diam*2/3 && res.Estimate <= diam),
		}, nil
	}, nil
}

// dissemination measures the §1 motivation (E14): a duty-cycled broadcast
// with polling period args.period over the reference BFS labels of the run's
// graph of the trial's family and size, which it describes by its size
// ("vertices") and label depth ("depth").
func dissemination(args map[string]float64) (harness.TrialCtxFunc, error) {
	period, err := intArg(args, "period")
	if err != nil {
		return nil, err
	}
	return func(_ *harness.Context, tr harness.Trial) (harness.Metrics, error) {
		g, err := repro.NewGraph(tr.Family, tr.N, rng.Derive(tr.Root, 0xe14))
		if err != nil {
			return nil, err
		}
		labels := graph.BFS(g, 0)
		depth := int32(0)
		for _, l := range labels {
			depth = max(depth, l)
		}
		net := lbnet.NewUnitNet(g, 0, tr.Seed)
		res := new(labelcast.Scratch).Broadcast(progress.Hooks{}, net, labels, period, int64(g.N())*int64(period+2)*4)
		return harness.Metrics{
			"vertices":  float64(g.N()),
			"depth":     float64(depth),
			"delivered": harness.BoolMetric(res.DeliveredAll),
			"latency":   float64(res.MaxLatency),
			"maxLB":     float64(lbnet.MaxLBEnergy(net)),
			"idle":      float64(res.IdleListens),
		}, nil
	}, nil
}
