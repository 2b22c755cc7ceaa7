package repro

// The built-in registry entries: every workload of the paper — Recursive-BFS
// (§4), the Decay baseline, gradient verification, both §5.1 diameter
// approximations, and the §1 Poll/Alarm applications — as Algorithm values.
// Each entry validates the Request fields it reads, derives its randomness
// from the network seed with a fixed per-algorithm tag, threads the caller's
// context and observer into the round loops, and reports the run's own cost.

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/diameter"
	"repro/internal/graph"
	"repro/internal/labelcast"
	"repro/internal/progress"
	"repro/internal/rng"
)

func init() {
	Register(&recursiveAlgo{algoMeta{
		name: "recursive",
		doc:  "Recursive-BFS (§4, Theorem 4.1): sub-polynomial-energy BFS labels from Source",
		params: []ParamSpec{
			{Name: "source", Doc: "BFS source vertex"},
			{Name: "maxdist", Doc: "search radius in hops (0 = n)"},
		},
	}})
	Register(&decayAlgo{algoMeta{
		name: "decay",
		doc:  "Decay BFS baseline on the physical channel (Θ(D log² n) energy)",
		params: []ParamSpec{
			{Name: "source", Doc: "BFS source vertex"},
			{Name: "maxdist", Doc: "search radius in hops (0 = n)"},
			{Name: "passes", Doc: "Decay repetitions, via WithDecayPasses (default ⌈log₂ n⌉)"},
		},
	}})
	Register(&verifyAlgo{algoMeta{
		name: "verify",
		doc:  "O(1)-energy gradient verification of a BFS labeling (§1)",
		params: []ParamSpec{
			{Name: "source", Doc: "BFS source when Labels is nil"},
			{Name: "maxdist", Doc: "largest label swept (0 = n)"},
			{Name: "labels", Doc: "labeling to check (nil = run Recursive-BFS first)"},
		},
	}})
	Register(&diamAlgo{algoMeta: algoMeta{
		name:   "diam2",
		doc:    "2-approximate diameter (Theorem 5.3): diam/2 <= D' <= diam",
		params: nil,
	}, tag: 0xd1a2})
	Register(&diamAlgo{algoMeta: algoMeta{
		name:   "diam32",
		doc:    "nearly-3/2-approximate diameter (Theorem 5.4) at n^(1/2+o(1)) energy",
		params: nil,
	}, tag: 0xd32, threeHalves: true})
	Register(&pollAlgo{algoMeta{
		name: "poll",
		doc:  "duty-cycled dissemination over BFS labels (§1): one message from the source",
		params: []ParamSpec{
			{Name: "source", Doc: "base-station vertex (label 0)"},
			{Name: "period", Doc: "polling period (0 = 4)"},
			{Name: "labels", Doc: "labeling to poll over (nil = reference BFS)"},
		},
	}})
	Register(&alarmAlgo{algoMeta{
		name: "alarm",
		doc:  "§1 alarm round trip: gradient ascent from Origin to the source, then dissemination",
		params: []ParamSpec{
			{Name: "source", Doc: "base-station vertex (label 0)"},
			{Name: "origin", Doc: "vertex raising the alarm"},
			{Name: "period", Doc: "polling period (0 = 4)"},
			{Name: "labels", Doc: "labeling to route over (nil = reference BFS)"},
		},
	}})

	// Long names from the papers, and the historical CLI spelling.
	RegisterAlias("recursive-bfs", "recursive")
	RegisterAlias("decay-bfs", "decay")
	RegisterAlias("baseline", "decay")
}

// algoMeta implements the descriptive half of Algorithm.
type algoMeta struct {
	name   string
	doc    string
	params []ParamSpec
}

func (m *algoMeta) Name() string        { return m.name }
func (m *algoMeta) Doc() string         { return m.doc }
func (m *algoMeta) Params() []ParamSpec { return append([]ParamSpec(nil), m.params...) }

// hooksFor bundles the run's cancellation and observation plumbing.
func hooksFor(ctx context.Context, req Request) progress.Hooks {
	return progress.Hooks{Ctx: ctx, Obs: req.Observer}
}

// bfsArgs validates and resolves the (source, maxdist) pair.
func (req Request) bfsArgs(nw *Network) (int32, int, error) {
	n := nw.g.N()
	if req.Source < 0 || int(req.Source) >= n {
		return 0, 0, fmt.Errorf("repro: source %d out of range [0, %d)", req.Source, n)
	}
	switch {
	case req.MaxDist < 0:
		return 0, 0, fmt.Errorf("repro: negative search radius %d", req.MaxDist)
	case req.MaxDist == 0:
		return req.Source, n, nil
	}
	return req.Source, req.MaxDist, nil
}

// pollPeriod validates and resolves the polling period.
func (req Request) pollPeriod() (int, error) {
	switch {
	case req.Period < 0:
		return 0, fmt.Errorf("repro: negative polling period %d", req.Period)
	case req.Period == 0:
		return 4, nil
	}
	return req.Period, nil
}

// labeling resolves the labeling the applications run over: the supplied one
// (validated against the network size) or the reference BFS from src.
func (req Request) labeling(nw *Network, src int32) ([]int32, error) {
	if req.Labels == nil {
		return graph.BFS(nw.g, src), nil
	}
	if len(req.Labels) != nw.g.N() {
		return nil, fmt.Errorf("repro: labeling has %d entries, network has %d", len(req.Labels), nw.g.N())
	}
	return req.Labels, nil
}

// newResult seals a run: it stamps the algorithm name, allocates the Values
// map and snapshots the run's meter movement against before.
func newResult(name string, nw *Network, before Report) *Result {
	return &Result{Algorithm: name, Values: make(map[string]float64, 4), Cost: nw.Report().delta(before)}
}

// boolMetric encodes a predicate as a 0/1 metric so aggregation yields rates.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// recursiveAlgo is the paper's headline algorithm.
type recursiveAlgo struct{ algoMeta }

func (a *recursiveAlgo) Run(ctx context.Context, nw *Network, req Request) (*Result, error) {
	src, d, err := req.bfsArgs(nw)
	if err != nil {
		return nil, err
	}
	before := nw.Report()
	st, err := nw.buildStack(hooksFor(ctx, req), 0xbf5, d)
	if err != nil {
		return nil, err
	}
	dist := st.BFS([]int32{src}, d)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := newResult(a.name, nw, before)
	res.Labels = dist
	return res, nil
}

func (a *recursiveAlgo) Check(nw *Network, req Request, res *Result) {
	src, d, _ := req.bfsArgs(nw)
	res.Values["mislabeled"] = float64(core.VerifyAgainstReference(nw.g, []int32{src}, res.Labels, d))
}

// decayAlgo is the everyone-awake comparator. It always runs on the physical
// channel: under CostPhysical it shares the network's engine and meters;
// under CostUnit it runs on the pooled engine (WithEngineProvider) or a
// private one, and its physical meters reach the caller through Result.Cost
// either way.
type decayAlgo struct{ algoMeta }

func (a *decayAlgo) Run(ctx context.Context, nw *Network, req Request) (*Result, error) {
	src, d, err := req.bfsArgs(nw)
	if err != nil {
		return nil, err
	}
	eng := nw.baselineEngine()
	startRounds, startViol := eng.Round(), eng.MsgViolations()
	before := nw.Report()
	r := nw.decayScratch().BFS(hooksFor(ctx, req), eng,
		decay.ParamsFor(nw.g.N(), nw.passes), []int32{src}, d, rng.Derive(nw.seed, 0xd3ca))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := newResult(a.name, nw, before)
	res.Labels = append([]int32(nil), r.Dist...) // r.Dist aliases the scratch
	res.Cost.MaxPhysEnergy = eng.MaxEnergy()
	res.Cost.PhysRounds = eng.Round() - startRounds
	res.Cost.MsgViolations = eng.MsgViolations() - startViol
	return res, nil
}

func (a *decayAlgo) Check(nw *Network, req Request, res *Result) {
	src, d, _ := req.bfsArgs(nw)
	res.Values["mislabeled"] = float64(core.VerifyAgainstReference(nw.g, []int32{src}, res.Labels, d))
}

// verifyAlgo is the cheap labeling check, preceded by Recursive-BFS when no
// labeling is supplied.
type verifyAlgo struct{ algoMeta }

func (a *verifyAlgo) Run(ctx context.Context, nw *Network, req Request) (*Result, error) {
	src, d, err := req.bfsArgs(nw)
	if err != nil {
		return nil, err
	}
	labels := req.Labels
	if labels != nil && len(labels) != nw.g.N() {
		return nil, fmt.Errorf("repro: labeling has %d entries, network has %d", len(labels), nw.g.N())
	}
	before := nw.Report()
	if labels == nil {
		st, err := nw.buildStack(hooksFor(ctx, req), 0xbf5, d)
		if err != nil {
			return nil, err
		}
		labels = st.BFS([]int32{src}, d)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	viol := core.VerifyGradient(nw.base, labels, d).Violations
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := newResult(a.name, nw, before)
	if req.Labels == nil {
		res.Labels = labels
	}
	res.Values["violations"] = float64(viol)
	return res, nil
}

func (a *verifyAlgo) Check(*Network, Request, *Result) {}

// diamAlgo covers both §5.1 approximations; threeHalves selects Theorem 5.4.
type diamAlgo struct {
	algoMeta
	tag         uint64
	threeHalves bool
}

func (a *diamAlgo) Run(ctx context.Context, nw *Network, req Request) (*Result, error) {
	n := nw.g.N()
	before := nw.Report()
	st, err := nw.buildStack(hooksFor(ctx, req), a.tag, n)
	if err != nil {
		return nil, err
	}
	var r diameter.Result
	if a.threeHalves {
		r = diameter.ThreeHalvesApprox(st, diameter.Designated(), n, rng.Derive(nw.seed, 0x5eed))
	} else {
		r = diameter.TwoApprox(st, diameter.Designated(), n)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := newResult(a.name, nw, before)
	res.Estimate = r.Estimate
	res.Values["estimate"] = float64(r.Estimate)
	return res, nil
}

func (a *diamAlgo) Check(nw *Network, _ Request, res *Result) {
	diam := graph.Diameter(nw.g)
	lo := diam / 2
	if a.threeHalves {
		lo = diam * 2 / 3
	}
	res.Values["diam"] = float64(diam)
	res.Values["inBand"] = boolMetric(res.Estimate >= lo && res.Estimate <= diam)
}

// pollAlgo is the §1 dissemination over an existing labeling.
type pollAlgo struct{ algoMeta }

func (a *pollAlgo) Run(ctx context.Context, nw *Network, req Request) (*Result, error) {
	src, _, err := req.bfsArgs(nw)
	if err != nil {
		return nil, err
	}
	period, err := req.pollPeriod()
	if err != nil {
		return nil, err
	}
	labels, err := req.labeling(nw, src)
	if err != nil {
		return nil, err
	}
	before := nw.Report()
	var s labelcast.Scratch
	r := s.BroadcastHooked(hooksFor(ctx, req), nw.base, labels, period, pollBudget(nw.g.N(), period))
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := newResult(a.name, nw, before)
	res.Values["latency"] = float64(r.MaxLatency)
	res.Values["delivered"] = boolMetric(r.DeliveredAll)
	return res, nil
}

func (a *pollAlgo) Check(*Network, Request, *Result) {}

// alarmAlgo is the full §1 round trip: ascend the gradient, then broadcast.
type alarmAlgo struct{ algoMeta }

func (a *alarmAlgo) Run(ctx context.Context, nw *Network, req Request) (*Result, error) {
	src, _, err := req.bfsArgs(nw)
	if err != nil {
		return nil, err
	}
	period, err := req.pollPeriod()
	if err != nil {
		return nil, err
	}
	if req.Origin < 0 || int(req.Origin) >= nw.g.N() {
		return nil, fmt.Errorf("repro: alarm origin %d out of range [0, %d)", req.Origin, nw.g.N())
	}
	labels, err := req.labeling(nw, src)
	if err != nil {
		return nil, err
	}
	before := nw.Report()
	h := hooksFor(ctx, req)
	budget := pollBudget(nw.g.N(), period)
	var s labelcast.Scratch
	up := s.ToSourceHooked(h, nw.base, labels, req.Origin, period, 3, budget)
	latency, completed := up.Slots, false
	if up.Reached {
		down := s.BroadcastHooked(h, nw.base, labels, period, budget)
		latency, completed = up.Slots+down.MaxLatency, down.DeliveredAll
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res := newResult(a.name, nw, before)
	res.Values["latency"] = float64(latency)
	res.Values["completed"] = boolMetric(completed)
	return res, nil
}

func (a *alarmAlgo) Check(*Network, Request, *Result) {}

// pollBudget is the slot budget of the §1 applications: enough for every
// layer to be polled a constant number of times even at period-length gaps.
func pollBudget(n, period int) int64 {
	return int64(n) * int64(period+2) * 4
}
