package graph

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// queueBFS is the plain queue BFS that MultiSourceBFS replaced, kept as its
// reference: every level walks the frontier's arcs.
func queueBFS(g *Graph, srcs []int32) []int32 {
	dist := make([]int32, g.N())
	for i := range dist {
		dist[i] = Unreachable
	}
	queue := make([]int32, 0, g.N())
	for _, s := range srcs {
		if dist[s] == Unreachable {
			dist[s] = 0
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range g.Neighbors(u) {
			if dist[v] == Unreachable {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// disjointUnion places b's vertices after a's, with no edge between them.
func disjointUnion(a, b *Graph) *Graph {
	u := NewBuilder(a.N() + b.N())
	a.Edges(func(x, y int32) { u.AddEdge(x, y) })
	off := int32(a.N())
	b.Edges(func(x, y int32) { u.AddEdge(x+off, y+off) })
	return u.Graph()
}

// TestMultiSourceBFSMatchesQueueBFS is the property that lets the BFS walk
// each level from the smaller side: over random G(n,p) at several
// densities, complete graphs, stars searched from a leaf, lollipops and
// disconnected graphs, from one, several and duplicate sources, its
// distances equal the plain queue BFS's, also when every search reuses one
// set of buffers, as Diameter's do. Bottom-up levels must run on some
// inputs, and some searches must stay top-down throughout.
func TestMultiSourceBFSMatchesQueueBFS(t *testing.T) {
	r := rng.New(0xbf5)
	type input struct {
		name string
		g    *Graph
	}
	var inputs []input
	for _, n := range []int{1, 2, 7, 40, 150} {
		for _, p := range []float64{0.01, 0.05, 0.2, 0.6, 1} {
			inputs = append(inputs, input{fmt.Sprintf("gnp(%d,%.2f)", n, p), GNP(n, p, r)})
		}
		inputs = append(inputs,
			input{fmt.Sprintf("complete(%d)", n), Complete(n)},
			input{fmt.Sprintf("star(%d)", n), Star(n)},
			input{fmt.Sprintf("lollipop(%d,%d)", n, n/2), Lollipop(n, n/2)},
			input{fmt.Sprintf("lollipop(%d,%d)", n/4, 2*n), Lollipop(n/4, 2*n)},
			input{fmt.Sprintf("complete(%d)+path(%d)", n, n), disjointUnion(Complete(n), Path(n))},
			input{fmt.Sprintf("gnp(%d,0.3)+isolated", n), disjointUnion(GNP(n, 0.3, r), NewBuilder(n).Graph())},
		)
	}
	bottomUp, topDownOnly := 0, 0
	var shared bfsBuffers
	for _, in := range inputs {
		g, n := in.g, in.g.N()
		srcSets := [][]int32{{0}, {int32(n - 1)}, {int32(n / 2), 0, int32(n / 2)}}
		if n > 1 {
			srcSets = append(srcSets, []int32{1}) // a leaf of the star
		}
		var some []int32
		for v := 0; v < n; v++ {
			if r.Intn(5) == 0 {
				some = append(some, int32(v))
			}
		}
		srcSets = append(srcSets, some, append(some, some...))
		for _, srcs := range srcSets {
			got, up := multiSourceBFS(g, srcs, g.N())
			want := queueBFS(g, srcs)
			reused, _ := shared.search(g, srcs, g.N())
			for v := range want {
				if got[v] != want[v] || reused[v] != want[v] {
					t.Fatalf("%s from %v: dist[%d] = %d (%d on reused buffers), queue BFS %d", in.name, srcs, v, got[v], reused[v], want[v])
				}
			}
			if up > 0 {
				bottomUp++
			} else if len(srcs) > 0 {
				topDownOnly++
			}
		}
	}
	if bottomUp == 0 || topDownOnly == 0 {
		t.Fatalf("%d searches ran bottom-up levels and %d stayed top-down: want both", bottomUp, topDownOnly)
	}
	// From a clique vertex of Lollipop(50, 10), the rest of the clique is
	// the wide level: its 2402 arcs outweigh a scan of all 60 vertices plus
	// the tail's 19 arcs, so that level, and only it, runs bottom-up.
	if _, up := multiSourceBFS(Lollipop(50, 10), []int32{0}, 60); up != 1 {
		t.Fatalf("lollipop from a clique vertex ran %d bottom-up levels, want 1", up)
	}
}

// TestMultiSourceBFSWithinCapsFullSearch requires the depth-limited BFS to
// equal the full one with every distance beyond d read as Unreachable, on
// every registry family at n ≤ 4096, from the first and the last vertex,
// for d ∈ {0, 1, 5, n}.
func TestMultiSourceBFSWithinCapsFullSearch(t *testing.T) {
	for _, fam := range FamilyNames() {
		for _, n := range []int{1, 2, 100, 4096} {
			if fam == "complete" && n > 1024 {
				n = 1024 // K_4096 alone would hold 16.8M arcs
			}
			g, _ := Named(fam, n, 7)
			n = g.N()
			for _, srcs := range [][]int32{{0}, {int32(n - 1)}} {
				full := MultiSourceBFS(g, srcs)
				for _, d := range []int{0, 1, 5, n} {
					got := MultiSourceBFSWithin(g, srcs, d)
					for v, want := range full {
						if int(want) > d {
							want = Unreachable
						}
						if got[v] != want {
							t.Fatalf("%s n=%d from %v within %d: dist[%d] = %d, want %d", fam, n, srcs, d, v, got[v], want)
						}
					}
				}
			}
		}
	}
}
