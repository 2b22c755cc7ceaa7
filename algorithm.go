package repro

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/progress"
)

// Observer receives streaming progress events — phase start/end and
// round-batch advances — from the round loops of a running algorithm. Attach
// one through Request.Observer. Implementations must be cheap and, when
// shared across concurrent runs (e.g. one counter for a whole sweep), safe
// for concurrent use. See internal/progress for the event grain.
type Observer = progress.Observer

// ObserverFuncs adapts plain functions into an Observer; nil fields are
// skipped.
type ObserverFuncs = progress.Funcs

// Request carries the per-run inputs of a registered Algorithm. Every
// algorithm reads only the fields its ParamSpecs name (see Algorithm.Params)
// and validates them before touching the network; the zero value asks for
// the default run — BFS from vertex 0 over the whole graph, polling period 4.
type Request struct {
	// Source is the BFS source / base station vertex (default 0).
	Source int32
	// MaxDist bounds the search radius in hops; 0 means the full graph (n).
	MaxDist int
	// Period is the polling period of the poll and alarm applications
	// (0 = the default, 4).
	Period int
	// Origin is the vertex raising the alarm (alarm only; default 0).
	Origin int32
	// Labels supplies an existing BFS labeling to verify, poll or alarm
	// over. When nil, verify computes one with Recursive-BFS and the
	// applications use the reference BFS labeling from Source.
	Labels []int32
	// Observer, when non-nil, streams progress events from the run's round
	// loops. Leaving it nil keeps the hot loops free of observation cost.
	Observer Observer
}

// Result is the structured outcome of one Algorithm run.
type Result struct {
	// Algorithm is the registry name of the algorithm that produced this.
	Algorithm string
	// Labels is the produced labeling for BFS-style algorithms (hop
	// distances, -1 beyond the search radius); nil otherwise. The slice is
	// owned by the caller.
	Labels []int32
	// Estimate is the diameter estimate (diameter algorithms; 0 otherwise).
	Estimate int32
	// Values holds every scalar outcome by metric name — "latency",
	// "delivered", "violations", "estimate", … — plus whatever ground-truth
	// metrics Algorithm.Check added. The experiment harness aggregates
	// these keys directly.
	Values map[string]float64
	// Cost is this run's meter movement, not the network's cumulative
	// meters: additive meters (TotalLBEnergy, LBTime, PhysRounds,
	// MsgViolations) are differenced against the pre-run snapshot, while the
	// per-device maxima (MaxLBEnergy, MaxPhysEnergy) — which cannot be
	// differenced without per-device snapshots — carry the end-of-run value
	// and equal this run's own maxima on a fresh or freshly Reset network.
	Cost Report
}

// ParamSpec documents one Request field an algorithm reads.
type ParamSpec struct {
	// Name is the Request field, lower-cased ("source", "maxdist", …).
	Name string
	// Doc is a one-line description of how the algorithm uses it.
	Doc string
}

// Algorithm is a named, registered workload: everything the paper runs over
// a radio network — searches, approximations, verification sweeps,
// applications — behind one dispatchable surface. Drivers resolve entries by
// name (Get, Algorithms) so a newly registered algorithm appears in the
// CLI, in specs and in the benchmark suite without touching any of them;
// the scenario library's tests then ask for its row in the E0 registry
// table (scenarios/e0_registry.json).
type Algorithm interface {
	// Name is the registry key ("recursive", "decay", "diam2", …).
	Name() string
	// Doc is a one-line description for listings.
	Doc() string
	// Params lists the Request fields this algorithm reads.
	Params() []ParamSpec
	// Run executes the algorithm on nw. It validates the Request fields it
	// reads, polls ctx at phase boundaries (a canceled context stops the
	// round loops within one phase, leaves the network's meters settled and
	// returns ctx's error), and reports the run's own cost in Result.Cost.
	Run(ctx context.Context, nw *Network, req Request) (*Result, error)
	// Check augments res.Values with centralized ground-truth metrics —
	// reference-BFS mismatch counts, the true diameter and approximation
	// band — that the distributed run cannot know. It is what the harness
	// and experiment tables call after Run; latency-sensitive callers skip
	// it, since it may cost a full centralized BFS or diameter computation.
	Check(nw *Network, req Request, res *Result)
}

// registry is the process-wide algorithm table. Built-ins register during
// package init; external packages may Register their own entries (e.g. the
// algorithms of the related energy-complexity papers) and have them show up
// in every registry-driven driver.
var registry = struct {
	sync.RWMutex
	algos   map[string]Algorithm
	aliases map[string]string
}{
	algos:   map[string]Algorithm{},
	aliases: map[string]string{},
}

// Register adds a to the registry. It panics when the name (or an existing
// alias) is already taken: algorithm names are a global namespace and a
// silent overwrite would reroute every driver.
func Register(a Algorithm) {
	name := a.Name()
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.algos[name]; dup {
		panic(fmt.Sprintf("repro: algorithm %q registered twice", name))
	}
	if _, dup := registry.aliases[name]; dup {
		panic(fmt.Sprintf("repro: algorithm %q collides with an alias", name))
	}
	registry.algos[name] = a
}

// RegisterAlias makes alias resolve to the algorithm named canonical. It
// panics when the alias collides with an existing name or alias, or when the
// canonical entry does not exist.
func RegisterAlias(alias, canonical string) {
	registry.Lock()
	defer registry.Unlock()
	if _, ok := registry.algos[canonical]; !ok {
		panic(fmt.Sprintf("repro: alias %q targets unregistered algorithm %q", alias, canonical))
	}
	if _, dup := registry.algos[alias]; dup {
		panic(fmt.Sprintf("repro: alias %q collides with an algorithm name", alias))
	}
	if _, dup := registry.aliases[alias]; dup {
		panic(fmt.Sprintf("repro: alias %q registered twice", alias))
	}
	registry.aliases[alias] = canonical
}

// Get resolves an algorithm by name or alias. The error lists every known
// name, so it doubles as the CLI's "unknown algorithm" message.
func Get(name string) (Algorithm, error) {
	registry.RLock()
	defer registry.RUnlock()
	if a, ok := registry.algos[name]; ok {
		return a, nil
	}
	if canon, ok := registry.aliases[name]; ok {
		return registry.algos[canon], nil
	}
	return nil, fmt.Errorf("repro: unknown algorithm %q (known: %s)", name, strings.Join(algorithmNamesLocked(), ", "))
}

// Algorithms returns every registered algorithm, sorted by name.
func Algorithms() []Algorithm {
	registry.RLock()
	defer registry.RUnlock()
	out := make([]Algorithm, 0, len(registry.algos))
	for _, a := range registry.algos {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// AlgorithmNames returns every registered name, sorted.
func AlgorithmNames() []string {
	registry.RLock()
	defer registry.RUnlock()
	return algorithmNamesLocked()
}

func algorithmNamesLocked() []string {
	names := make([]string, 0, len(registry.algos))
	for name := range registry.algos {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Aliases returns the alias → canonical-name map (a copy).
func Aliases() map[string]string {
	registry.RLock()
	defer registry.RUnlock()
	out := make(map[string]string, len(registry.aliases))
	for k, v := range registry.aliases {
		out[k] = v
	}
	return out
}
