package harness

import (
	"strings"
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
