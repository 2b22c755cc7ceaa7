package harness

import (
	"repro"
	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/radio"
)

// graphKey identifies one cached deterministic workload graph.
type graphKey struct {
	family string
	n      int
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
	// their topology through: one pre-sized arc accumulator per worker,
	// Reset between trials, so steady-state seeded sweeps stop paying a
	// cold build per trial.
	builder *graph.Builder
	// shared is a read-only cache of deterministic-family graphs built
	// before worker fan-out, so one instance serves every worker; graphs
	// are immutable, so lock-free concurrent reads are safe. graphs is the
	// per-context overflow for families the Runner could not anticipate.
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

// sharedGraphs pre-builds the deterministic-family graphs of every instance
// in the scenarios, for use with per-worker contexts: each distinct
// (family, n) is constructed exactly once and shared read-only across all
// workers, instead of once per worker. Unknown families are skipped — the
// executing trial reports the error itself.
func sharedGraphs(scenarios ...*Scenario) map[graphKey]*graph.Graph {
	shared := make(map[graphKey]*graph.Graph)
	for _, sc := range scenarios {
		for _, inst := range sc.Instances {
			k := graphKey{inst.Family, inst.N}
			if _, ok := shared[k]; ok || graph.FamilySeeded(inst.Family) {
				continue
			}
			if g, err := repro.NewGraph(inst.Family, inst.N, 0); err == nil {
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
// are immutable. Seeded families are always built fresh, since every trial
// draws a different topology.
func (c *Context) Graph(family string, n int, seed uint64) (*graph.Graph, error) {
	if graph.FamilySeeded(family) {
		if c.builder == nil {
			c.builder = graph.FromDegreeHint(n, 8)
		}
		// FamilySeeded and NamedInto consult the same registry, so a
		// seeded family always resolves.
		g, _ := graph.NamedInto(c.builder, family, n, seed)
		return g, nil
	}
	k := graphKey{family, n}
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
