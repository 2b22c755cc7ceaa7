package decay_test

import (
	"testing"

	"repro/internal/core"
	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/progress"
	"repro/internal/radio"
	"repro/internal/rng"
)

// These tests check Decay BFS labels with core.VerifyAgainstReference, the
// check the registry's decay entry runs. core imports decay through lbnet,
// so only an external test package can call it.

// bfs runs one Decay BFS from srcs on a fresh engine over g.
func bfs(g *graph.Graph, passes int, srcs []int32, maxDist int, seed uint64) []int32 {
	e := radio.NewEngine(g)
	p := decay.ParamsFor(g.N(), passes)
	return new(decay.Scratch).BFS(progress.Hooks{}, e, p, srcs, maxDist, seed).Dist
}

func TestBFSMatchesReferenceOnFamilies(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"path", graph.Path(40)},
		{"cycle", graph.Cycle(33)},
		{"grid", graph.Grid(6, 7)},
		{"star", graph.Star(30)},
		{"tree", graph.BinaryTree(31)},
		{"complete", graph.Complete(20)},
		{"hypercube", graph.Hypercube(5)},
	}
	for _, fam := range families {
		n := fam.g.N()
		dist := bfs(fam.g, 4, []int32{0}, n, rng.Derive(31, uint64(n)))
		if bad := core.VerifyAgainstReference(fam.g, []int32{0}, dist, n); bad != 0 {
			t.Errorf("%s: %d vertices mislabeled", fam.name, bad)
		}
	}
}

func TestBFSRandomGraphsManySeeds(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 8; trial++ {
		g := graph.ConnectedGNP(80, 0.05, r)
		// w.h.p. correctness needs Θ(log n) passes (Lemma 2.4 with
		// f = 1/poly(n)); 4 passes would fail ~1% of deliveries.
		dist := bfs(g, 10, []int32{0}, 80, rng.Derive(100, uint64(trial)))
		if bad := core.VerifyAgainstReference(g, []int32{0}, dist, 80); bad != 0 {
			t.Fatalf("trial %d: %d mislabeled", trial, bad)
		}
	}
}

func TestBFSMultiSource(t *testing.T) {
	g := graph.Path(30)
	srcs := []int32{0, 29}
	dist := bfs(g, 4, srcs, 30, 5)
	if bad := core.VerifyAgainstReference(g, srcs, dist, 30); bad != 0 {
		t.Fatalf("%d mislabeled", bad)
	}
}
