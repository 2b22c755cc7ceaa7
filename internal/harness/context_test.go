package harness

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// aggregateJSONFresh executes the sweep one trial at a time, each on a
// brand-new Context — the unpooled reference the pooled runner must match
// byte for byte.
func aggregateJSONFresh(t *testing.T, scenarios []*Scenario, root uint64) string {
	t.Helper()
	var results []Result
	for _, sc := range scenarios {
		for _, tr := range Expand(sc, root) {
			results = append(results, ExecuteCtx(NewContext(), sc, tr))
		}
	}
	var b strings.Builder
	if err := WriteJSON(&b, Aggregate(results)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestPooledContextsMatchFreshPerTrial is the pooling contract: reusing
// engines, scratch and cached graphs across the trials of a worker must not
// change any aggregated number, at any worker count.
func TestPooledContextsMatchFreshPerTrial(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-scenario sweep is not short")
	}
	const root = 11
	fresh := aggregateJSONFresh(t, sweepScenarios(), root)
	for _, workers := range []int{1, 8} {
		r := Runner{Workers: workers, Root: root}
		var b strings.Builder
		if err := WriteJSON(&b, Aggregate(r.Run(sweepScenarios()...))); err != nil {
			t.Fatal(err)
		}
		if pooled := b.String(); pooled != fresh {
			t.Fatalf("workers=%d pooled output diverged from fresh-per-trial:\n--- fresh ---\n%s\n--- pooled ---\n%s", workers, fresh, pooled)
		}
	}
}

// TestContextGraphCaching checks the cache policy: deterministic families
// are built once and shared; seeded families are rebuilt per call.
func TestContextGraphCaching(t *testing.T) {
	ctx := NewContext()
	g1, err := ctx.Graph("cycle", 64, 123)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := ctx.Graph("cycle", 64, 456) // different seed, same topology
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Fatal("deterministic family not cached across seeds")
	}
	r1, err := ctx.Graph("gnp", 64, 123)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ctx.Graph("gnp", 64, 123)
	if err != nil {
		t.Fatal(err)
	}
	if r1 == r2 {
		t.Fatal("seeded family must not be cached")
	}
	if !graph.FamilySeeded("tree") || graph.FamilySeeded("grid") {
		t.Fatal("FamilySeeded misclassifies families")
	}
	if _, err := ctx.Graph("no-such-family", 8, 1); err == nil {
		t.Fatal("unknown family must error")
	}
}

// TestPinnedGraphsBuiltOnce checks that trials of PinGraphs scenarios —
// across scenarios and workers — get the one pre-built seeded-family graph
// for their shared graph seed, equal edge for edge to the one NamedInto
// builds, while trials of a scenario without PinGraphs still build theirs
// fresh.
func TestPinnedGraphsBuiltOnce(t *testing.T) {
	const root = 17
	inst := Instance{Family: "geometric", N: 96}
	var mu sync.Mutex
	got := map[string][]*graph.Graph{}
	record := func(ctx *Context, tr Trial) (Metrics, error) {
		g, err := ctx.Graph(tr.Family, tr.N, tr.GraphSeed)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		got[tr.Scenario] = append(got[tr.Scenario], g)
		mu.Unlock()
		return Metrics{}, nil
	}
	scenario := func(name string, pin bool) *Scenario {
		return &Scenario{Name: name, Instances: []Instance{inst}, Trials: 3, PinGraphs: pin, RunCtx: record}
	}
	a, b, fresh := scenario("pinned-a", true), scenario("pinned-b", true), scenario("fresh", false)
	(&Runner{Workers: 2, Root: root}).Run(a, b, fresh)

	for _, sc := range []string{"pinned-a", "pinned-b", "fresh"} {
		if len(got[sc]) != 3 {
			t.Fatalf("%s: %d trials asked for a graph, want 3", sc, len(got[sc]))
		}
	}
	pinned := got["pinned-a"][0]
	for _, g := range append(got["pinned-a"], got["pinned-b"]...) {
		if g != pinned {
			t.Fatal("trials of pinned scenarios got different graph instances")
		}
	}
	want, _ := graph.NamedInto(graph.FromDegreeHint(inst.N, 8), inst.Family, inst.N, TrialFor(a, inst, 0, root).GraphSeed)
	if !sameEdges(pinned, want) {
		t.Fatal("pinned graph differs from NamedInto's for its graph seed")
	}
	seen := map[*graph.Graph]bool{pinned: true}
	for _, g := range got["fresh"] {
		if seen[g] {
			t.Fatal("a trial without PinGraphs was served a cached seeded graph")
		}
		seen[g] = true
	}
}

// sameEdges reports whether two graphs have the same vertices and edges.
func sameEdges(g, h *graph.Graph) bool {
	if g.N() != h.N() {
		return false
	}
	for v := int32(0); v < int32(g.N()); v++ {
		if !slices.Equal(g.Neighbors(v), h.Neighbors(v)) {
			return false
		}
	}
	return true
}
