// Package repro is an executable reproduction of "The Energy Complexity of
// BFS in Radio Networks" (Yi-Jun Chang, Varsha Dani, Thomas P. Hayes, Seth
// Pettie; PODC 2020, arXiv:2007.09816).
//
// It provides a radio-network simulator faithful to the paper's RN[b] model
// and full implementations of the paper's algorithms:
//
//   - Recursive-BFS (§4), the sub-polynomial-energy breadth-first search
//     built on Miller–Peng–Xu cluster graphs,
//   - the Decay BFS baseline (Θ(D log² n) energy),
//   - the diameter approximations of §5.1 (2-approximation and nearly
//     3/2-approximation),
//   - BFS-labeling verification and the duty-cycled dissemination
//     application that motivates the paper,
//   - the lower-bound constructions of §5 (see internal/lowerbound).
//
// The public API is the algorithm registry: every workload is a registered
// Algorithm resolved by name (Get, Algorithms) and run against a Network
// with Run(ctx, nw, Request) — one composable surface shared by the CLI,
// the experiment harness, and the benchmarks:
//
//	alg, _ := repro.Get("recursive")
//	res, err := alg.Run(ctx, repro.NewNetwork(g, seed), repro.Request{Source: 0})
//
// The packages under internal/ expose every layer (radio physics, Decay,
// clustering, virtual cluster-graph networks) for finer-grained use by the
// examples, the experiment harness (internal/harness) and the benchmarks.
package repro

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/progress"
	"repro/internal/radio"
	"repro/internal/rng"
)

// Graph re-exports the CSR graph type used throughout.
type Graph = graph.Graph

// NewGraph builds a named workload graph (see graph.FamilyNames) with n
// vertices and the given seed. It returns an error for unknown families.
func NewGraph(family string, n int, seed uint64) (*Graph, error) {
	g, ok := graph.Named(family, n, seed)
	if !ok {
		return nil, fmt.Errorf("repro: unknown graph family %q (known: %v)", family, graph.FamilyNames())
	}
	return g, nil
}

// CostModel selects how Local-Broadcasts are charged.
type CostModel int

const (
	// CostUnit charges one unit of time per Local-Broadcast and one unit of
	// energy per participant — the paper's unit of measurement (§4.3).
	CostUnit CostModel = iota
	// CostPhysical runs every Local-Broadcast as a Decay protocol on the
	// simulated radio channel, charging real listen/transmit slots
	// (Lemma 2.4 makes the two differ by an O(log Δ · log f⁻¹) factor).
	CostPhysical
)

// Option configures a Network. Invalid values surface as errors from
// NewNetworkE (NewNetwork panics on them).
type Option func(*Network)

// WithCostModel selects the cost model (default CostUnit).
func WithCostModel(m CostModel) Option {
	return func(nw *Network) { nw.model = m }
}

// WithDecayPasses sets the Decay repetition count for physical-channel
// Local-Broadcasts (default ⌈log₂ n⌉, giving per-call failure 1/poly(n)).
// Negative values are a configuration error; 0 keeps the default.
func WithDecayPasses(p int) Option {
	return func(nw *Network) {
		if p < 0 {
			nw.optErr = fmt.Errorf("repro: negative Decay pass count %d", p)
			return
		}
		nw.passes = p
	}
}

// WithDecayScratch supplies caller-owned Decay scratch buffers for the
// baseline BFS, so pooled trial runners (see internal/harness) reuse one
// scratch across trials instead of growing a fresh one per Network. The
// scratch must not be used elsewhere while the Network is live.
func WithDecayScratch(s *decay.Scratch) Option {
	return func(nw *Network) { nw.decScr = s }
}

// WithParams overrides the Recursive-BFS parameters (default: the paper's
// formulas via core.DefaultParams for each search radius).
func WithParams(p core.Params) Option {
	return func(nw *Network) { nw.params = &p }
}

// WithEngineProvider supplies caller-owned radio engines: the network
// reuses them instead of allocating its own, for CostPhysical
// Local-Broadcasts and for the Decay baseline's physical channel in either
// cost model. provider is invoked only when a workload needs the physical
// channel: once per Network under CostPhysical, whose later Resets reuse
// that engine, and on every Decay baseline run under CostUnit. It must
// return an engine already reset onto the network's graph, not used
// elsewhere while the Network is live. The harness's pooled worker
// contexts use this so unit-cost trials that never touch the radio skip
// the O(n) engine reset.
func WithEngineProvider(provider func() *radio.Engine) Option {
	return func(nw *Network) { nw.engProv = provider }
}

// Network is a radio network ready to run the paper's algorithms. Meters
// accumulate across calls; use Reset or a fresh Network to separate runs
// (per-run costs are also reported in each Result.Cost).
type Network struct {
	g       *Graph
	seed    uint64
	model   CostModel
	passes  int
	params  *core.Params
	engProv func() *radio.Engine
	decScr  *decay.Scratch
	optErr  error

	base lbnet.Net
	eng  *radio.Engine
}

// NewNetworkE wraps g as a radio network. seed determines every random
// choice; identical seeds give identical runs. It returns an error for a nil
// or vertex-free graph or an invalid option — the registry path
// (internal/harness, the CLIs) uses it; NewNetwork wraps it for callers that
// prefer panics.
func NewNetworkE(g *Graph, seed uint64, opts ...Option) (*Network, error) {
	if g == nil {
		return nil, fmt.Errorf("repro: nil graph")
	}
	if g.N() == 0 {
		return nil, fmt.Errorf("repro: graph has no vertices")
	}
	nw := &Network{g: g, seed: seed}
	for _, o := range opts {
		o(nw)
	}
	if nw.optErr != nil {
		return nil, nw.optErr
	}
	if nw.passes == 0 {
		// At least one Decay pass even for the degenerate single-vertex
		// network, where ⌈log₂ n⌉ = 0.
		if nw.passes = log2ceil(g.N()); nw.passes < 1 {
			nw.passes = 1
		}
	}
	nw.Reset()
	return nw, nil
}

// NewNetwork is NewNetworkE for infallible configurations: it panics on a
// nil or vertex-free graph or an invalid option instead of returning the
// error.
func NewNetwork(g *Graph, seed uint64, opts ...Option) *Network {
	nw, err := NewNetworkE(g, seed, opts...)
	if err != nil {
		panic(err)
	}
	return nw
}

// log2ceil returns ⌈log₂ n⌉: the smallest lg with 2^lg >= n (0 for n <= 1).
func log2ceil(n int) int { return graph.Log2Ceil(n) }

// Reset replaces the underlying network, zeroing all meters.
func (nw *Network) Reset() {
	switch nw.model {
	case CostPhysical:
		switch {
		case nw.eng != nil:
			nw.eng.Reset(nw.g)
		case nw.engProv != nil:
			nw.eng = nw.engProv()
		default:
			nw.eng = radio.NewEngine(nw.g)
		}
		nw.base = lbnet.NewPhysNet(nw.eng, decay.ParamsFor(nw.g.N(), nw.passes), rng.Derive(nw.seed, 0xba5e))
	default:
		nw.eng = nil
		nw.base = lbnet.NewUnitNet(nw.g, 0, rng.Derive(nw.seed, 0xba5e))
	}
}

// Base exposes the underlying lbnet.Net for advanced use.
func (nw *Network) Base() lbnet.Net { return nw.base }

// Report is a cost summary of everything run on the network so far.
type Report struct {
	// MaxLBEnergy is the paper's energy measure in Local-Broadcast units:
	// the maximum, over devices, of the number of LBs participated in.
	MaxLBEnergy int64
	// TotalLBEnergy sums LB participations over all devices.
	TotalLBEnergy int64
	// LBTime is elapsed time in Local-Broadcast units.
	LBTime int64
	// MaxPhysEnergy and PhysRounds are the physical-slot meters
	// (CostPhysical only; zero otherwise).
	MaxPhysEnergy int64
	PhysRounds    int64
	// MsgViolations counts messages exceeding the RN[O(log n)] budget
	// (CostPhysical only); it should always be zero.
	MsgViolations int64
}

// Report snapshots the meters.
func (nw *Network) Report() Report {
	r := nw.meters()
	r.MaxLBEnergy = lbnet.MaxLBEnergy(nw.base)
	if nw.eng != nil {
		r.MaxPhysEnergy = nw.eng.MaxEnergy()
	}
	return r
}

// meters snapshots only the additive meters, the ones delta differences:
// a run's starting point, which skips Report's scans for the per-device
// maxima.
func (nw *Network) meters() Report {
	r := Report{TotalLBEnergy: lbnet.TotalLBEnergy(nw.base), LBTime: nw.base.LBTime()}
	if nw.eng != nil {
		r.PhysRounds = nw.eng.Round()
		r.MsgViolations = nw.eng.MsgViolations()
	}
	return r
}

// delta returns the meter movement since before: additive meters are
// differenced, while the per-device maxima — which cannot be differenced
// without per-device snapshots — keep the receiver's (end-of-run) value.
func (r Report) delta(before Report) Report {
	r.TotalLBEnergy -= before.TotalLBEnergy
	r.LBTime -= before.LBTime
	r.PhysRounds -= before.PhysRounds
	r.MsgViolations -= before.MsgViolations
	return r
}

// buildStack constructs the cluster-graph stack every stack-based algorithm
// runs on: the configured parameters (or the paper's automatic ones for
// search radius d0), randomness derived from the network seed and the
// algorithm's tag, and the run's hooks attached.
func (nw *Network) buildStack(h progress.Hooks, tag uint64, d0 int) (*core.Stack, error) {
	if err := h.Err(); err != nil {
		return nil, err
	}
	p := core.AutoParams(nw.g.N(), d0)
	if nw.params != nil {
		p = *nw.params
	}
	st, err := core.BuildStack(nw.base, p, rng.Derive(nw.seed, tag))
	if err != nil {
		return nil, err
	}
	st.Hooks = h
	return st, nil
}

// baselineEngine returns the physical engine the Decay baseline runs on: the
// network's own engine under CostPhysical (sharing its meters), else one
// from WithEngineProvider, which hands it over already reset, else a
// private one.
func (nw *Network) baselineEngine() *radio.Engine {
	switch {
	case nw.eng != nil:
		return nw.eng
	case nw.engProv != nil:
		return nw.engProv()
	default:
		return radio.NewEngine(nw.g)
	}
}

// decayScratch returns the Decay buffer pool the baseline uses: the
// caller-supplied one (WithDecayScratch) or a lazily allocated private one.
func (nw *Network) decayScratch() *decay.Scratch {
	if nw.decScr == nil {
		nw.decScr = new(decay.Scratch)
	}
	return nw.decScr
}
