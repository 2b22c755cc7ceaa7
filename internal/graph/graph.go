// Package graph provides the static undirected graphs on which radio networks
// are simulated: a compact CSR (compressed sparse row) representation, a
// mutable builder, generators for the workload families used in the
// experiments, and sequential reference algorithms (BFS, diameter,
// degeneracy) against which the distributed algorithms are validated.
package graph

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/scratch"
)

// Log2Ceil returns ⌈log₂ n⌉ for n ≥ 1 (0 for n ≤ 1). It is the shared
// bit-length helper behind message budgets, Decay pass counts and subset
// lengths, replacing the hand-rolled shift loops that used to be scattered
// across packages.
func Log2Ceil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len64(uint64(n - 1))
}

// Graph is an immutable simple undirected graph in CSR form. Vertices are
// 0..N()-1. Adjacency lists are sorted, self-loop free and duplicate free.
type Graph struct {
	offsets   []int32
	neighbors []int32
	maxDeg    int
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.offsets) - 1 }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.neighbors) / 2 }

// Degree returns the degree of v.
func (g *Graph) Degree(v int32) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// MaxDegree returns the maximum degree over all vertices (0 for empty graphs).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Neighbors returns the sorted adjacency list of v. The returned slice aliases
// internal storage and must not be modified.
func (g *Graph) Neighbors(v int32) []int32 {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether {u, v} is an edge.
func (g *Graph) HasEdge(u, v int32) bool {
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// Edges calls fn once per undirected edge {u, v} with u < v.
func (g *Graph) Edges(fn func(u, v int32)) {
	for u := int32(0); u < int32(g.N()); u++ {
		for _, v := range g.Neighbors(u) {
			if u < v {
				fn(u, v)
			}
		}
	}
}

// Builder accumulates edges and produces a Graph. Duplicate edges and
// self-loops are silently dropped when Graph is called.
//
// Edges are stored as a flat directed-arc list (each undirected edge appears
// once per direction), so accumulation is two appends with no per-vertex
// slice headers. Finalization scatters the arcs into their rows in one
// stable counting pass and comparison-sorts only the rows that arrived out
// of order; generators that append every row in ascending order (star, grid,
// uniform-attachment tree) pay no sort at all. GNPInto adds no arcs: it
// writes its CSR itself and uses the builder's arrays only as scratch, and
// only ConnectedGNPInto's rare connectivity refill goes through AddEdge.
// A Builder may be reused across graphs via Reset: the arc arrays and the
// finalization scratch persist, so a pooled builder that has reached its
// working size accumulates and finalizes follow-up graphs with only the two
// allocations the immutable result itself owns (offsets and neighbors). The
// trial harness pools one builder per worker for exactly this: seeded-family
// sweeps stop paying a cold build per trial.
type Builder struct {
	n   int
	src []int32
	dst []int32

	// pos is the finalization scratch (row cursors), reused across Graph
	// and GNPInto calls.
	pos []int32
}

// NewBuilder returns a Builder for an n-vertex graph.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// NewBuilderHint returns a Builder for an n-vertex graph pre-sized for about
// edges undirected edges, so accumulation never reallocates when the hint is
// an upper bound.
func NewBuilderHint(n, edges int) *Builder {
	b := NewBuilder(n)
	if edges > 0 {
		b.src = make([]int32, 0, 2*edges)
		b.dst = make([]int32, 0, 2*edges)
	}
	return b
}

// FromDegreeHint returns a Builder pre-sized for an expected average degree —
// the generators' path to accumulation without reallocation.
func FromDegreeHint(n, avgDeg int) *Builder {
	return NewBuilderHint(n, (n*avgDeg+1)/2)
}

// N returns the number of vertices.
func (b *Builder) N() int { return b.n }

// Reset re-targets the builder at an empty n-vertex graph, keeping every
// backing array (arc accumulation and finalization scratch) for reuse. A
// builder after Reset(n) behaves exactly like NewBuilder(n).
func (b *Builder) Reset(n int) {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	b.n = n
	b.src = b.src[:0]
	b.dst = b.dst[:0]
}

// AddEdge adds the undirected edge {u, v}. Out-of-range endpoints panic;
// self-loops are ignored.
func (b *Builder) AddEdge(u, v int32) {
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		panic(fmt.Sprintf("graph: edge {%d,%d} out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		return
	}
	b.src = append(b.src, u, v)
	b.dst = append(b.dst, v, u)
}

// Graph finalizes the builder into an immutable Graph. One stable counting
// scatter groups the arcs by source, each row keeping the order its arcs
// were added in; a row is comparison-sorted only if some adjacent pair is
// out of order, and one linear pass then drops adjacent duplicates. Work is
// O(n + m) plus the sorts of the rows that arrived unsorted.
func (b *Builder) Graph() *Graph {
	n := b.n
	src, dst := b.src, b.dst[:len(b.src)]
	pos := scratch.Grow(b.pos, n+1)
	b.pos = pos
	clear(pos)
	for _, s := range src {
		pos[s]++
	}
	var sum int32
	for v, c := range pos {
		pos[v] = sum
		sum += c
	}
	neighbors := make([]int32, len(src))
	for i, s := range src {
		neighbors[pos[s]] = dst[i]
		pos[s]++
	}

	// Per-row sort-if-needed and dedupe in place. After the scatter, pos[v]
	// is the end of row v.
	g := &Graph{offsets: make([]int32, n+1)}
	var w, start int32
	for v := 0; v < n; v++ {
		row := neighbors[start:pos[v]]
		if !slices.IsSorted(row) {
			slices.Sort(row)
		}
		g.offsets[v] = w
		prev := int32(-1)
		for _, x := range row {
			if x != prev {
				neighbors[w] = x
				prev = x
				w++
			}
		}
		start = pos[v]
		if d := int(w - g.offsets[v]); d > g.maxDeg {
			g.maxDeg = d
		}
	}
	g.offsets[n] = w
	g.neighbors = neighbors[:w]
	return g
}

// FromEdges builds a graph directly from an edge list.
func FromEdges(n int, edges [][2]int32) *Graph {
	b := NewBuilderHint(n, len(edges))
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Graph()
}
