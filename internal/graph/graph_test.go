package graph

import (
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestBuilderDedupAndSort(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self-loop dropped
	b.AddEdge(3, 1)
	g := b.Graph()
	if g.M() != 2 {
		t.Fatalf("M = %d, want 2", g.M())
	}
	if got := g.Neighbors(1); len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Fatalf("Neighbors(1) = %v, want [0 3]", got)
	}
	if g.Degree(2) != 0 {
		t.Fatalf("self-loop not dropped: deg(2) = %d", g.Degree(2))
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	NewBuilder(2).AddEdge(0, 5)
}

func TestHasEdge(t *testing.T) {
	g := Path(5)
	for v := int32(0); v < 4; v++ {
		if !g.HasEdge(v, v+1) || !g.HasEdge(v+1, v) {
			t.Fatalf("missing path edge {%d,%d}", v, v+1)
		}
	}
	if g.HasEdge(0, 2) {
		t.Fatal("unexpected edge {0,2}")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := Cycle(6)
	count := 0
	g.Edges(func(u, v int32) {
		if u >= v {
			t.Fatalf("Edges yielded u >= v: {%d,%d}", u, v)
		}
		count++
	})
	if count != 6 {
		t.Fatalf("cycle(6) edge count = %d", count)
	}
}

func TestMaxDegree(t *testing.T) {
	if d := Star(10).MaxDegree(); d != 9 {
		t.Fatalf("star max degree = %d", d)
	}
	if d := Path(10).MaxDegree(); d != 2 {
		t.Fatalf("path max degree = %d", d)
	}
	if d := NewBuilder(0).Graph().MaxDegree(); d != 0 {
		t.Fatalf("empty graph max degree = %d", d)
	}
}

func TestBFSPath(t *testing.T) {
	g := Path(7)
	dist := BFS(g, 0)
	for v := int32(0); v < 7; v++ {
		if dist[v] != v {
			t.Fatalf("dist[%d] = %d", v, dist[v])
		}
	}
}

func TestBFSDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	dist := BFS(b.Graph(), 0)
	if dist[2] != Unreachable || dist[3] != Unreachable {
		t.Fatalf("expected unreachable, got %v", dist)
	}
}

func TestMultiSourceBFS(t *testing.T) {
	g := Path(10)
	dist := MultiSourceBFS(g, []int32{0, 9})
	want := []int32{0, 1, 2, 3, 4, 4, 3, 2, 1, 0}
	for v, d := range dist {
		if d != want[v] {
			t.Fatalf("dist[%d] = %d, want %d", v, d, want[v])
		}
	}
}

func TestMultiSourceDuplicates(t *testing.T) {
	g := Cycle(8)
	a := MultiSourceBFS(g, []int32{3})
	b := MultiSourceBFS(g, []int32{3, 3, 3})
	for v := range a {
		if a[v] != b[v] {
			t.Fatal("duplicate sources changed distances")
		}
	}
}

func TestDiameterKnownFamilies(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int32
	}{
		{"path10", Path(10), 9},
		{"cycle10", Cycle(10), 5},
		{"cycle9", Cycle(9), 4},
		{"grid3x5", Grid(3, 5), 6},
		{"star8", Star(8), 2},
		{"complete6", Complete(6), 1},
		{"kminus", CompleteMinusEdge(6, 1, 4), 2},
		{"hypercube4", Hypercube(4), 4},
		{"single", Path(1), 0},
	}
	for _, c := range cases {
		if got := Diameter(c.g); got != c.want {
			t.Errorf("%s: diameter = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestDiameterDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1)
	if Diameter(b.Graph()) != Unreachable {
		t.Fatal("disconnected diameter should be Unreachable")
	}
}

func TestComponents(t *testing.T) {
	b := NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(4, 5)
	comp, k := Components(b.Graph())
	if k != 3 {
		t.Fatalf("components = %d, want 3", k)
	}
	if comp[0] != comp[2] || comp[0] == comp[3] || comp[4] != comp[5] {
		t.Fatalf("bad component labels %v", comp)
	}
}

func TestDegeneracy(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
		want int
	}{
		{"tree", BinaryTree(31), 1},
		{"cycle", Cycle(10), 2},
		{"complete5", Complete(5), 4},
		{"grid", Grid(5, 5), 2},
		{"empty", NewBuilder(3).Graph(), 0},
	}
	for _, c := range cases {
		if got := Degeneracy(c.g); got != c.want {
			t.Errorf("%s: degeneracy = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestGNPEdgeProbability(t *testing.T) {
	r := rng.New(11)
	const n, p = 300, 0.05
	total := 0
	const trials = 10
	for i := 0; i < trials; i++ {
		total += GNP(n, p, r).M()
	}
	want := p * float64(n) * float64(n-1) / 2
	got := float64(total) / trials
	if got < 0.85*want || got > 1.15*want {
		t.Fatalf("G(n,p) mean edges = %v, want ~%v", got, want)
	}
}

func TestGNPExtremes(t *testing.T) {
	r := rng.New(13)
	if g := GNP(20, 0, r); g.M() != 0 {
		t.Fatal("GNP(p=0) has edges")
	}
	if g := GNP(20, 1, r); g.M() != 190 {
		t.Fatalf("GNP(p=1) M = %d", g.M())
	}
}

func TestConnectedGNPIsConnected(t *testing.T) {
	r := rng.New(17)
	for trial := 0; trial < 10; trial++ {
		g := ConnectedGNP(100, 0.005, r) // far below connectivity threshold
		if !IsConnected(g) {
			t.Fatal("ConnectedGNP produced disconnected graph")
		}
	}
}

func TestRandomGeometricConnected(t *testing.T) {
	r := rng.New(19)
	for trial := 0; trial < 5; trial++ {
		g := RandomGeometric(200, 0.05, r, true) // radius small: stitching required
		if !IsConnected(g) {
			t.Fatal("RandomGeometric(connect=true) disconnected")
		}
	}
}

func TestRandomGeometricRadius(t *testing.T) {
	r := rng.New(23)
	g := RandomGeometric(300, 0.12, r, false)
	// With this density the graph should have a healthy number of edges.
	if g.M() < 100 {
		t.Fatalf("geometric graph suspiciously sparse: M = %d", g.M())
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	check := func(seed uint64, sz uint8) bool {
		n := int(sz%60) + 2
		g := RandomTree(n, rng.New(seed))
		return g.M() == n-1 && IsConnected(g)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestLollipop(t *testing.T) {
	g := Lollipop(5, 4)
	if g.N() != 9 {
		t.Fatalf("N = %d", g.N())
	}
	if !IsConnected(g) {
		t.Fatal("lollipop disconnected")
	}
	if Diameter(g) != 5 {
		t.Fatalf("lollipop diameter = %d, want 5", Diameter(g))
	}
}

func TestCaterpillar(t *testing.T) {
	g := Caterpillar(5, 3)
	if g.N() != 20 {
		t.Fatalf("N = %d", g.N())
	}
	if !IsConnected(g) {
		t.Fatal("caterpillar disconnected")
	}
	if Diameter(g) != 6 { // leg—spine(4 hops)—leg
		t.Fatalf("caterpillar diameter = %d", Diameter(g))
	}
}

func TestPathWithTrees(t *testing.T) {
	g := PathWithTrees(10, 3)
	if !IsConnected(g) {
		t.Fatal("disconnected")
	}
	// Diameter: tree depth 3 + bridge + path 9 + bridge + tree depth 3 = 17.
	if d := Diameter(g); d != 17 {
		t.Fatalf("diameter = %d, want 17", d)
	}
}

func TestTorusRegular(t *testing.T) {
	g := Torus(4, 5)
	for v := int32(0); v < int32(g.N()); v++ {
		if g.Degree(v) != 4 {
			t.Fatalf("torus degree(%d) = %d", v, g.Degree(v))
		}
	}
	if !IsConnected(g) {
		t.Fatal("torus disconnected")
	}
}

func TestNamedFamiliesConnected(t *testing.T) {
	for _, name := range FamilyNames() {
		g, ok := Named(name, 64, 5)
		if !ok {
			t.Fatalf("family %q not found", name)
		}
		if g.N() == 0 {
			t.Fatalf("family %q produced empty graph", name)
		}
		if !IsConnected(g) {
			t.Fatalf("family %q disconnected at n=64", name)
		}
	}
	if _, ok := Named("nope", 10, 1); ok {
		t.Fatal("unknown family should return ok=false")
	}
}

// TestFamiliesSmallN builds every registered family at the smallest sizes a
// spec accepts (n >= 1): each must build without panicking, have at least
// one vertex (a trial's source is vertex 0) and yield sorted,
// duplicate-free, loop-free rows. Lollipop at n = 1 has no clique, only a
// one-vertex tail, which must not reach back to a vertex -1.
func TestFamiliesSmallN(t *testing.T) {
	for _, name := range FamilyNames() {
		for n := 1; n <= 4; n++ {
			for seed := uint64(0); seed < 3; seed++ {
				g, ok := Named(name, n, seed)
				if !ok {
					t.Fatalf("family %q not found", name)
				}
				if g.N() < 1 {
					t.Fatalf("family %q n=%d seed=%d: empty graph", name, n, seed)
				}
				for v := int32(0); int(v) < g.N(); v++ {
					prev := int32(-1)
					for _, x := range g.Neighbors(v) {
						if x == v || x <= prev {
							t.Fatalf("family %q n=%d seed=%d: row %d = %v is not sorted, duplicate-free and loop-free",
								name, n, seed, v, g.Neighbors(v))
						}
						prev = x
					}
				}
			}
		}
	}
}

func TestNamedDeterministic(t *testing.T) {
	for _, name := range []string{"gnp", "geometric", "tree"} {
		a, _ := Named(name, 50, 99)
		b, _ := Named(name, 50, 99)
		if a.N() != b.N() || a.M() != b.M() {
			t.Fatalf("family %q not deterministic", name)
		}
		eq := true
		a.Edges(func(u, v int32) {
			if !b.HasEdge(u, v) {
				eq = false
			}
		})
		if !eq {
			t.Fatalf("family %q edge sets differ across identical seeds", name)
		}
	}
}

// Property: BFS distances obey the triangle-ish local condition — adjacent
// vertices' distances differ by at most 1 — and every non-source vertex has a
// neighbor one closer. This is the gradient property the paper's labelcast
// application relies on.
func TestBFSGradientProperty(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		g := ConnectedGNP(40, 0.08, r)
		dist := BFS(g, 0)
		for v := int32(0); v < int32(g.N()); v++ {
			hasDown := dist[v] == 0
			for _, u := range g.Neighbors(v) {
				d := dist[u] - dist[v]
				if d < -1 || d > 1 {
					return false
				}
				if dist[u] == dist[v]-1 {
					hasDown = true
				}
			}
			if !hasDown {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFromEdges(t *testing.T) {
	g := FromEdges(3, [][2]int32{{0, 1}, {1, 2}})
	if g.M() != 2 || !g.HasEdge(0, 1) || !g.HasEdge(1, 2) {
		t.Fatal("FromEdges mismatch")
	}
}

func BenchmarkBFSGrid(b *testing.B) {
	g := Grid(100, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, 0)
	}
}
