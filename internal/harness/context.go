package harness

import (
	"repro"
	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/radio"
)

// graphKey identifies one cached workload graph: seed is the graph seed
// of a pinned seeded-family graph, and 0 for a deterministic family.
type graphKey struct {
	family string
	n      int
	seed   uint64
}

// Context is the per-worker trial state pool: a reusable radio engine, the
// Decay scratch buffers, a pooled graph builder for the seeded families
// rebuilt every trial, and a cache of deterministic workload graphs. The
// Runner creates one Context per worker and threads it through every trial
// that worker executes, so steady-state sweeps reuse their heavy allocations
// instead of rebuilding them per trial.
//
// A Context must never be shared between concurrently running trials; each
// worker owns exactly one. Everything a Context hands out is either
// immutable (cached graphs) or fully reset before reuse (the engine), so
// trial results are identical whether a Context is fresh or has served any
// number of prior trials — the worker-count determinism guarantee depends
// on this.
type Context struct {
	eng   *radio.Engine
	decay decay.Scratch
	// builder is the pooled graph builder seeded-family trials rebuild
	// their topology through: one arc accumulator per worker, Reset
	// between trials, so steady-state seeded sweeps stop paying a cold
	// build per trial. It starts empty, since each generator reserves what
	// it fills (G(n,p) its own upper list, the random tree its 2(n-1)
	// arcs) and a size guess would be zeroed only to be replaced.
	builder *graph.Builder
	// shared is a read-only cache of the graphs built before worker
	// fan-out — deterministic-family graphs and the seeded-family graphs of
	// PinGraphs scenarios — so one instance serves every worker and every
	// trial; graphs are immutable, so lock-free concurrent reads are safe.
	// graphs is the per-context overflow for deterministic families the
	// Runner could not anticipate.
	shared map[graphKey]*graph.Graph
	graphs map[graphKey]*graph.Graph
}

// NewContext returns an empty trial context. Trials executed with it warm
// its pools lazily.
func NewContext() *Context {
	return &Context{graphs: make(map[graphKey]*graph.Graph)}
}

// newContextShared returns a context that consults the given pre-built
// graph cache before its private one. The map must not be written after
// being handed out.
func newContextShared(shared map[graphKey]*graph.Graph) *Context {
	c := NewContext()
	c.shared = shared
	return c
}

// sharedGraphs pre-builds the graphs the scenarios' trials will ask for
// under root seed root, for use with per-worker contexts: each distinct
// deterministic-family (family, n) is constructed exactly once, and so is
// each seeded-family (family, n, graph seed) of a PinGraphs scenario, whose
// trials all share one graph seed. Both are shared read-only across all
// workers instead of being built once per worker, or once per trial.
// Unknown families are skipped — the executing trial reports the error
// itself.
func sharedGraphs(root uint64, scenarios ...*Scenario) map[graphKey]*graph.Graph {
	shared := make(map[graphKey]*graph.Graph)
	for _, sc := range scenarios {
		for _, inst := range sc.Instances {
			k := graphKey{family: inst.Family, n: inst.N}
			if graph.FamilySeeded(inst.Family) {
				if !sc.PinGraphs {
					continue
				}
				k.seed = TrialFor(sc, inst, 0, root).GraphSeed
			}
			if _, ok := shared[k]; ok {
				continue
			}
			if g, err := repro.NewGraph(k.family, k.n, k.seed); err == nil {
				shared[k] = g
			}
		}
	}
	return shared
}

// Graph returns the named workload graph for (family, n, seed). Graphs of
// deterministic families — those for which graph.FamilySeeded is false — are
// served from the shared pre-built cache when possible, else built once per
// context and reused across its trials; both are safe because Graph values
// are immutable. A seeded family's graph is served from the shared cache
// when a PinGraphs scenario pre-built it for this seed, and is otherwise
// built fresh, since every such trial draws a different topology.
func (c *Context) Graph(family string, n int, seed uint64) (*graph.Graph, error) {
	if graph.FamilySeeded(family) {
		if g, ok := c.shared[graphKey{family, n, seed}]; ok {
			return g, nil
		}
		if c.builder == nil {
			c.builder = graph.NewBuilder(n)
		}
		// FamilySeeded and NamedInto consult the same registry, so a
		// seeded family always resolves.
		g, _ := graph.NamedInto(c.builder, family, n, seed)
		return g, nil
	}
	k := graphKey{family: family, n: n}
	if g, ok := c.shared[k]; ok {
		return g, nil
	}
	if g, ok := c.graphs[k]; ok {
		return g, nil
	}
	g, err := repro.NewGraph(family, n, seed)
	if err != nil {
		return nil, err
	}
	c.graphs[k] = g
	return g, nil
}

// Engine returns the context's radio engine reset onto g: meters and clock
// zeroed, scratch reused. The returned engine is valid until the next
// Engine call on the same context.
func (c *Context) Engine(g *graph.Graph) *radio.Engine {
	if c.eng == nil {
		c.eng = radio.NewEngine(g)
		return c.eng
	}
	c.eng.Reset(g)
	return c.eng
}

// DecayScratch returns the context's Decay buffer pool, for custom
// TrialCtxFuncs that run Decay primitives directly.
func (c *Context) DecayScratch() *decay.Scratch { return &c.decay }
