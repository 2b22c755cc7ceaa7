package graph

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/rng"
)

// referenceCSR builds the (offsets, neighbors) arrays of an edge list the
// slow, obviously-correct way: per-vertex comparison sort plus dedupe. The
// one-scatter finalize in Builder.Graph must match it exactly.
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

// requireReferenceCSR fails the test unless g's offsets, neighbors and
// MaxDegree are exactly referenceCSR's for the n-vertex edge list.
func requireReferenceCSR(t *testing.T, label string, g *Graph, n int, edges [][2]int32) {
	t.Helper()
	wantOff, wantAdj := referenceCSR(n, edges)
	if !slices.Equal(g.offsets, wantOff) {
		t.Fatalf("%s: offsets = %v, want %v", label, g.offsets, wantOff)
	}
	if !slices.Equal(g.neighbors, wantAdj) {
		t.Fatalf("%s: neighbors = %v, want %v", label, g.neighbors, wantAdj)
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		maxDeg = max(maxDeg, int(wantOff[v+1]-wantOff[v]))
	}
	if g.MaxDegree() != maxDeg {
		t.Fatalf("%s: MaxDegree = %d, want %d", label, g.MaxDegree(), maxDeg)
	}
}

// builderEdges returns the undirected edges a builder holds, in the order
// they were added: AddEdge appends the arc u→v and then v→u, so the arcs at
// even positions are the edges.
func builderEdges(b *Builder) [][2]int32 {
	edges := make([][2]int32, 0, len(b.src)/2)
	for i := 0; i < len(b.src); i += 2 {
		edges = append(edges, [2]int32{b.src[i], b.dst[i]})
	}
	return edges
}

// TestBuilderCountingSortMatchesReference compares the finalize with
// referenceCSR on hand cases for the row shapes that decide its branches
// (rows that arrive sorted or unsorted, with adjacent or non-adjacent
// duplicates; self-loops; the empty and one-vertex graphs), then on random
// edge lists.
func TestBuilderCountingSortMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name  string
		n     int
		edges [][2]int32
	}{
		{"sorted row with adjacent duplicates", 4, [][2]int32{{0, 1}, {0, 1}, {0, 2}, {0, 3}, {0, 3}}},
		{"unsorted row with non-adjacent duplicates", 3, [][2]int32{{0, 2}, {0, 1}, {0, 2}}},
		{"self-loops", 3, [][2]int32{{1, 1}, {0, 1}, {2, 2}, {1, 2}, {0, 0}}},
		{"n=0", 0, nil},
		{"n=1", 1, [][2]int32{{0, 0}}},
	} {
		requireReferenceCSR(t, tc.name, FromEdges(tc.n, tc.edges), tc.n, tc.edges)
	}

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

		requireReferenceCSR(t, fmt.Sprintf("trial %d n=%d", trial, n), FromEdges(n, edges), n, edges)
	}
}

// TestGeneratorArcOrderMatchesReference runs the seeded generators that
// build through AddEdge straight on a builder and compares each finalized
// graph with referenceCSR of the arcs the builder still holds. G(n, p)'s
// augmentation refill and the geometric stitch re-add edges out of row
// order, so the sweep must reach both. A G(n, p) sample that needs no
// refill is written straight into CSR and leaves no arcs behind;
// TestGNPMatchesReference pins it.
func TestGeneratorArcOrderMatchesReference(t *testing.T) {
	gens := []struct {
		name  string
		build func(b *Builder, n int, r *rng.Source) *Graph
	}{
		{"tree", RandomTreeInto},
		{"connected-gnp", func(b *Builder, n int, r *rng.Source) *Graph { return ConnectedGNPInto(b, n, gnpP(n), r) }},
		{"geometric", func(b *Builder, n int, r *rng.Source) *Graph {
			return RandomGeometricInto(b, n, geoRadius(n), r, false)
		}},
		{"connected-geometric", func(b *Builder, n int, r *rng.Source) *Graph {
			return RandomGeometricInto(b, n, geoRadius(n), r, true)
		}},
	}
	refills, stitches := 0, 0
	b := NewBuilder(0)
	for _, gen := range gens {
		for _, n := range []int{0, 1, 2, 3, 100, 1 << 14} {
			for seed := uint64(0); seed < 4; seed++ {
				g := gen.build(b, n, rng.New(seed))
				switch gen.name {
				case "connected-gnp":
					if IsConnected(GNP(n, gnpP(n), rng.New(seed))) {
						continue
					}
					refills++
				case "connected-geometric":
					if !IsConnected(RandomGeometric(n, geoRadius(n), rng.New(seed), false)) {
						stitches++
					}
				}
				requireReferenceCSR(t, fmt.Sprintf("%s n=%d seed=%d", gen.name, n, seed), g, n, builderEdges(b))
			}
		}
	}
	if refills == 0 || stitches == 0 {
		t.Fatalf("sweep reached %d G(n,p) refills and %d geometric stitches; want both > 0", refills, stitches)
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
// graphs identical to a fresh builder's and to referenceCSR, also when its
// row-cursor scratch is longer than the smaller graph needs.
func TestBuilderResetMatchesFresh(t *testing.T) {
	pooled := NewBuilder(0)
	largest := 0
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
		if n < largest && cap(pooled.pos) <= n+1 {
			t.Fatalf("n=%d after n=%d: row-cursor scratch capacity %d, want more than %d",
				n, largest, cap(pooled.pos), n+1)
		}
		largest = max(largest, n)
		got := pooled.Graph()
		if !graphsEqual(got, want) {
			t.Fatalf("n=%d: pooled builder graph differs from fresh", n)
		}
		requireReferenceCSR(t, fmt.Sprintf("pooled n=%d", n), got, n, edges)
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
// the accumulation arrays and the one scratch slice on top.
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

// TestGNPReservationCoversSample pins the upper-list reservation GNPInto
// makes before sampling: on an empty builder (the harness's pooled builder
// starts empty) and on one hinted for average degree 8, the list, one
// entry per edge, ends in exactly the capacity the one up-front
// reservation gives, so it never regrew mid-sample. The builder is left holding no arcs, and the pooled sample
// matches a fresh build's.
func TestGNPReservationCoversSample(t *testing.T) {
	for _, n := range []int{2, 3, 10, 100, 1 << 10, 1 << 14} {
		p := gnpP(n)
		for seed := uint64(0); seed < 4; seed++ {
			for _, b := range []*Builder{NewBuilder(n), FromDegreeHint(n, 8)} {
				want := cap(slices.Grow(make([]int32, 0, cap(b.dst)), gnpReserve(n, p)))
				g := GNPInto(b, n, p, rng.New(seed))
				if cap(b.dst) != want {
					t.Fatalf("n=%d seed=%d: upper list capacity %d for %d edges, want the reserved %d",
						n, seed, cap(b.dst), g.M(), want)
				}
				if len(b.src) != 0 || len(b.dst) != 0 {
					t.Fatalf("n=%d seed=%d: builder left holding %d/%d arcs, want none", n, seed, len(b.src), len(b.dst))
				}
				fresh := GNP(n, p, rng.New(seed))
				if !slices.Equal(g.neighbors, fresh.neighbors) || !slices.Equal(g.offsets, fresh.offsets) {
					t.Fatalf("n=%d seed=%d: pooled sample differs from a fresh one", n, seed)
				}
			}
		}
	}
}

// gnpReference is the G(n, p) sampler as it stood before GNPInto wrote the
// CSR itself: the same geometric-skip loop with the exact skip, feeding
// AddEdge and Builder.Graph. GNPInto must match it draw for draw.
func gnpReference(b *Builder, n int, p float64, r *rng.Source) *Graph {
	b.Reset(n)
	if p >= 1 {
		return Complete(n)
	}
	if p <= 0 {
		return b.Graph()
	}
	logq := math.Log(1 - p)
	u, v := int64(0), int64(0)
	nn := int64(n)
	for u < nn {
		skip := int64(math.Log(1-r.Float64())/logq) + 1
		v += skip
		for v >= nn && u < nn {
			u++
			v = v - nn + u + 1
		}
		if u < nn && v > u {
			b.AddEdge(int32(u), int32(v))
		}
	}
	return b.Graph()
}

// TestGNPMatchesReference compares GNPInto, on a builder reused across
// every size and p and on a fresh one per sample, with gnpReference:
// offsets, neighbours and MaxDegree, and the state the sample leaves the
// source in, which ConnectedGNPInto's refill draws from next. Pairs whose
// mean edge count exceeds 2^21 are skipped: the dense p at n = 2^14 and
// 2^17 would take gigabytes.
func TestGNPMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			t.Parallel()
			reused, ref := NewBuilder(0), NewBuilder(0)
			for _, n := range []int{0, 1, 2, 3, 100, 1 << 14, 1 << 17} {
				for _, p := range []float64{gnpP(n), 0.01, 0.5, 0.99} {
					if p*float64(n)*float64(n-1)/2 > 1<<21 {
						continue
					}
					rw := rng.New(seed)
					want := gnpReference(ref, n, p, rw)
					for _, b := range []*Builder{reused, NewBuilder(0)} {
						r := rng.New(seed)
						g := GNPInto(b, n, p, r)
						label := fmt.Sprintf("n=%d p=%g reused=%v", n, p, b == reused)
						if !slices.Equal(g.offsets, want.offsets) || !slices.Equal(g.neighbors, want.neighbors) {
							t.Fatalf("%s: CSR differs from the reference", label)
						}
						if g.MaxDegree() != want.MaxDegree() {
							t.Fatalf("%s: MaxDegree = %d, want %d", label, g.MaxDegree(), want.MaxDegree())
						}
						if *r != *rw {
							t.Fatalf("%s: source left in a different state than the reference leaves it", label)
						}
					}
				}
			}
		})
	}
}

// TestGeoSkipExact checks the bracketed skip against the exact expression
// int64(math.Log(y)/logq) at the registry's p from n = 64 to 2^20 and at
// three fixed p: on 10^7 random y per p (half drawn as the sampler draws
// them, half with a uniform exponent in [-53, -1] and a uniform mantissa),
// on y = 1, and within 8 ulps of the boundaries exp(k·logq) ≥ 2^-53 for
// every k up to 32 and then k growing by 1/32 each time, where the
// estimate cannot settle the skip. The bracket must leave y = 1 and every
// boundary input to the exact expression, and settle all but 1% of the
// random ones itself.
func TestGeoSkipExact(t *testing.T) {
	ps := []float64{0.01, 0.5, 0.99}
	for n := 64; n <= 1<<20; n *= 4 {
		ps = append(ps, gnpP(n))
	}
	for _, p := range ps {
		t.Run(fmt.Sprint("p=", p), func(t *testing.T) {
			t.Parallel()
			s := newGeoSkip(p)
			// check fails the test unless y's skip is exact, and reports
			// whether the bracket left it to the exact expression.
			check := func(y float64) bool {
				got, exact := s.skip(y)
				if want := int64(math.Log(y) / s.logq); got != want {
					t.Fatalf("y=%v (%#x): skip %d, want %d", y, math.Float64bits(y), got, want)
				}
				return exact
			}
			r := rng.New(math.Float64bits(p))
			const draws = 10_000_000
			fallbacks := 0
			for i := range draws {
				y := 1 - r.Float64()
				if i&1 == 1 {
					x := r.Uint64()
					y = math.Float64frombits((1022-(x>>52)%53)<<52 | x&(1<<52-1))
				}
				if check(y) {
					fallbacks++
				}
			}
			if fallbacks > draws/100 {
				t.Fatalf("the bracket fell back on %d of %d random draws, want at most 1%%", fallbacks, draws)
			}
			if !check(1) {
				t.Fatal("the bracket settled y = 1, whose quotient is the integer 0")
			}
			for k := 1; float64(k)*s.logq >= -53*math.Ln2; k = max(k+1, k+k/32) {
				y := math.Exp(float64(k) * s.logq)
				for range 8 {
					y = math.Nextafter(y, 0)
				}
				for j := -8; j <= 8; j++ {
					if y <= 1 && !check(y) {
						t.Fatalf("k=%d: the bracket settled y = %v, %d ulps from the boundary", k, y, j)
					}
					y = math.Nextafter(y, 2)
				}
			}
		})
	}
}

// builderGrid and builderStar are Grid and Star as they stood before they
// wrote their CSR rows themselves: AddEdge on a hinted builder, then
// Builder.Graph.
func builderGrid(rows, cols int) *Graph {
	b := NewBuilderHint(rows*cols, 2*rows*cols)
	id := func(r, c int) int32 { return int32(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Graph()
}

func builderStar(n int) *Graph {
	b := NewBuilderHint(n, n-1)
	for v := 1; v < n; v++ {
		b.AddEdge(0, int32(v))
	}
	return b.Graph()
}

// requireSameCSR fails the test unless got's offsets, neighbours and
// MaxDegree are want's.
func requireSameCSR(t *testing.T, label string, got, want *Graph) {
	t.Helper()
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.neighbors, want.neighbors) || got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("%s: offsets %v, neighbours %v, MaxDegree %d; builder path %v, %v, %d", label,
			got.offsets, got.neighbors, got.MaxDegree(), want.offsets, want.neighbors, want.MaxDegree())
	}
}

// TestGridAndStarMatchBuilder pins the grid and star generators, which
// write their CSR rows directly, to the builder path on the degenerate
// shapes and on the benchmark's sizes.
func TestGridAndStarMatchBuilder(t *testing.T) {
	for _, s := range [][2]int{{0, 0}, {1, 1}, {1, 5}, {5, 1}, {2, 2}, {3, 7}, {362, 362}} {
		requireSameCSR(t, fmt.Sprintf("grid %dx%d", s[0], s[1]), Grid(s[0], s[1]), builderGrid(s[0], s[1]))
	}
	for _, n := range []int{0, 1, 2, 3, 10, 1 << 17} {
		requireSameCSR(t, fmt.Sprintf("star %d", n), Star(n), builderStar(n))
	}
}
