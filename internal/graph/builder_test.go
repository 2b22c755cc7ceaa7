package graph

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// referenceCSR builds the (offsets, neighbors) arrays of an edge list the
// slow, obviously-correct way: per-vertex comparison sort plus dedupe. The
// counting-sort fast path in Builder.Graph must match it exactly.
func referenceCSR(n int, edges [][2]int32) ([]int32, []int32) {
	adj := make([][]int32, n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		adj[u] = append(adj[u], v)
		adj[v] = append(adj[v], u)
	}
	offsets := make([]int32, n+1)
	var neighbors []int32
	for v := 0; v < n; v++ {
		lst := adj[v]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		offsets[v] = int32(len(neighbors))
		for i, x := range lst {
			if i == 0 || x != lst[i-1] {
				neighbors = append(neighbors, x)
			}
		}
	}
	offsets[n] = int32(len(neighbors))
	return offsets, neighbors
}

func TestBuilderCountingSortMatchesReference(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(60)
		m := r.Intn(4 * n)
		edges := make([][2]int32, 0, m)
		for i := 0; i < m; i++ {
			edges = append(edges, [2]int32{int32(r.Intn(n)), int32(r.Intn(n))})
		}
		// Inject duplicates and self-loops deliberately.
		if m > 0 {
			edges = append(edges, edges[0], [2]int32{edges[0][1], edges[0][0]})
		}
		edges = append(edges, [2]int32{0, 0})

		g := FromEdges(n, edges)
		wantOff, wantAdj := referenceCSR(n, edges)
		if len(g.offsets) != len(wantOff) {
			t.Fatalf("n=%d: offsets length %d, want %d", n, len(g.offsets), len(wantOff))
		}
		for v, o := range wantOff {
			if g.offsets[v] != o {
				t.Fatalf("n=%d: offsets[%d] = %d, want %d", n, v, g.offsets[v], o)
			}
		}
		if len(g.neighbors) != len(wantAdj) {
			t.Fatalf("n=%d: neighbors length %d, want %d", n, len(g.neighbors), len(wantAdj))
		}
		for i, x := range wantAdj {
			if g.neighbors[i] != x {
				t.Fatalf("n=%d: neighbors[%d] = %d, want %d", n, i, g.neighbors[i], x)
			}
		}
		// MaxDegree must match the densest row.
		maxDeg := 0
		for v := 0; v < n; v++ {
			if d := int(wantOff[v+1] - wantOff[v]); d > maxDeg {
				maxDeg = d
			}
		}
		if g.MaxDegree() != maxDeg {
			t.Fatalf("n=%d: MaxDegree = %d, want %d", n, g.MaxDegree(), maxDeg)
		}
	}
}

func TestBuilderHintCapacity(t *testing.T) {
	b := NewBuilderHint(5, 4)
	for v := int32(0); v < 4; v++ {
		b.AddEdge(v, v+1)
	}
	if cap(b.src) != 8 || len(b.src) != 8 {
		t.Fatalf("hint of 4 edges: len/cap(src) = %d/%d, want 8/8", len(b.src), cap(b.src))
	}
	g := b.Graph()
	if g.M() != 4 || g.N() != 5 {
		t.Fatalf("got n=%d m=%d, want n=5 m=4", g.N(), g.M())
	}
}

// TestLog2CeilMatchesLoop pins Log2Ceil to the shift-loop definitions it
// replaced across the repository.
func TestLog2CeilMatchesLoop(t *testing.T) {
	loop := func(n int) int {
		lg := 0
		for 1<<lg < n {
			lg++
		}
		return lg
	}
	for n := 0; n < 1<<14; n++ {
		if got, want := Log2Ceil(n), loop(n); got != want {
			t.Fatalf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
	for _, n := range []int{1 << 20, 1<<20 + 1, 1<<30 - 1, 1 << 30} {
		if got, want := Log2Ceil(n), loop(n); got != want {
			t.Fatalf("Log2Ceil(%d) = %d, want %d", n, got, want)
		}
	}
}

// graphsEqual reports structural equality of two graphs.
func graphsEqual(a, b *Graph) bool {
	if a.N() != b.N() || a.M() != b.M() {
		return false
	}
	for v := int32(0); int(v) < a.N(); v++ {
		x, y := a.Neighbors(v), b.Neighbors(v)
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
	}
	return true
}

// TestBuilderResetMatchesFresh pins the pooled-builder contract: a builder
// Reset and refilled — across size changes, in both directions — produces
// graphs identical to a fresh builder's.
func TestBuilderResetMatchesFresh(t *testing.T) {
	pooled := NewBuilder(0)
	for _, n := range []int{17, 64, 9, 128, 0, 33} {
		r := rng.New(uint64(n + 1))
		edges := make([][2]int32, 0, 2*n)
		for i := 0; i < 2*n; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			edges = append(edges, [2]int32{u, v})
		}
		want := FromEdges(n, edges)
		pooled.Reset(n)
		for _, e := range edges {
			if e[0] != e[1] {
				pooled.AddEdge(e[0], e[1])
			}
		}
		if got := pooled.Graph(); !graphsEqual(got, want) {
			t.Fatalf("n=%d: pooled builder graph differs from fresh", n)
		}
	}
}

// TestNamedIntoMatchesNamed pins the pooled registry path to the fresh one
// for every family, seeded or not.
func TestNamedIntoMatchesNamed(t *testing.T) {
	b := NewBuilder(0)
	for _, fam := range FamilyNames() {
		for _, seed := range []uint64{1, 7} {
			want, ok1 := Named(fam, 200, seed)
			got, ok2 := NamedInto(b, fam, 200, seed)
			if !ok1 || !ok2 {
				t.Fatalf("family %q unknown", fam)
			}
			if !graphsEqual(got, want) {
				t.Fatalf("family %q seed %d: NamedInto differs from Named", fam, seed)
			}
		}
	}
	if _, ok := NamedInto(b, "no-such-family", 10, 1); ok {
		t.Fatal("unknown family accepted")
	}
}

// TestBuilderResetSteadyStateAllocs is the pooled-builder allocation pin: a
// warmed builder rebuilding a same-size seeded tree must allocate only what
// the immutable result itself owns (offsets + neighbors + the Graph header)
// plus the generator's rng — under 8 allocations, where a cold build pays
// the accumulation arrays and the three counting-sort scratch slices on top.
func TestBuilderResetSteadyStateAllocs(t *testing.T) {
	const n = 4096
	b := FromDegreeHint(n, 2)
	seed := uint64(0)
	if _, ok := NamedInto(b, "tree", n, seed); !ok { // warm the pools
		t.Fatal("tree family missing")
	}
	pooled := testing.AllocsPerRun(20, func() {
		seed++
		NamedInto(b, "tree", n, seed)
	})
	fresh := testing.AllocsPerRun(20, func() {
		seed++
		Named("tree", n, seed)
	})
	if pooled > 8 {
		t.Fatalf("pooled seeded build allocates %v per graph, want <= 8", pooled)
	}
	if pooled >= fresh {
		t.Fatalf("pooled build (%v allocs) should beat fresh build (%v allocs)", pooled, fresh)
	}
}

// TestGNPReservationCoversSample pins the arc reservation GNPInto makes
// before sampling: on a builder hinted for average degree 8 (the harness's
// pooled builder), a connected G(n, p) sample — including
// ConnectedGNPInto's augmentation refill — ends with exactly the capacity
// the one up-front reservation gives, so the arc arrays never regrew
// mid-sample, and its graph matches a fresh build's.
func TestGNPReservationCoversSample(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100, 1 << 10, 1 << 14} {
		p := gnpP(n)
		for seed := uint64(0); seed < 4; seed++ {
			b := FromDegreeHint(n, 8)
			want := cap(slices.Grow(make([]int32, 0, cap(b.src)), gnpReserve(n, p)))
			g := ConnectedGNPInto(b, n, p, rng.New(seed))
			if cap(b.src) != want || cap(b.dst) != want {
				t.Fatalf("n=%d seed=%d: arc capacity %d/%d after %d arcs, want the reserved %d",
					n, seed, cap(b.src), cap(b.dst), len(b.src), want)
			}
			fresh := ConnectedGNP(n, p, rng.New(seed))
			if !slices.Equal(g.neighbors, fresh.neighbors) || !slices.Equal(g.offsets, fresh.offsets) {
				t.Fatalf("n=%d seed=%d: pooled sample differs from a fresh one", n, seed)
			}
		}
	}
}
