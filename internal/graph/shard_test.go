package graph

import (
	"testing"

	"repro/internal/rng"
)

// shardTestGraphs builds topologies that stress the partition math: skewed
// degrees (star), regular shapes, randomness, degree-0 vertices, and the
// empty graph.
func shardTestGraphs() map[string]*Graph {
	withIsolated := func(g *Graph, extra int) *Graph {
		b := NewBuilderHint(g.N()+extra, g.M())
		g.Edges(func(u, v int32) { b.AddEdge(u, v) })
		return b.Graph()
	}
	r := rng.New(5)
	return map[string]*Graph{
		"empty":         NewBuilder(0).Graph(),
		"singleton":     NewBuilder(1).Graph(),
		"star":          Star(300),
		"path":          Path(97),
		"complete":      Complete(40),
		"tree+isolated": withIsolated(RandomTree(200, r), 31),
		"gnp":           ConnectedGNP(150, 0.05, r),
	}
}

// TestShardBoundsPartition checks the ownership ranges are a partition of
// the vertex set for every shard count, including k = 1, k = n and k > n.
func TestShardBoundsPartition(t *testing.T) {
	for name, g := range shardTestGraphs() {
		n := int32(g.N())
		for _, k := range []int{1, 2, 3, 5, 16, g.N(), g.N() + 7} {
			if k < 1 {
				continue
			}
			bounds := g.ShardBounds(k, nil)
			if len(bounds) != k+1 {
				t.Fatalf("%s k=%d: %d boundaries, want %d", name, k, len(bounds), k+1)
			}
			if bounds[0] != 0 || bounds[k] != n {
				t.Fatalf("%s k=%d: bounds span [%d, %d], want [0, %d]", name, k, bounds[0], bounds[k], n)
			}
			for s := 0; s < k; s++ {
				if bounds[s] > bounds[s+1] {
					t.Fatalf("%s k=%d: boundary %d decreases: %v", name, k, s, bounds)
				}
			}
		}
	}
}

// TestShardCoverageExactlyOnce is the shard boundary property test: for
// every vertex, concatenating its per-shard adjacency sub-ranges over the
// partition must reproduce its full neighbor list exactly — every
// (transmitter, neighbor) pair visited exactly once, none twice, none
// skipped. This includes degree-0 vertices (all sub-ranges empty), edges
// whose endpoints share one shard, and empty shards from k > n.
func TestShardCoverageExactlyOnce(t *testing.T) {
	for name, g := range shardTestGraphs() {
		for _, k := range []int{1, 2, 3, 7, 16, g.N() + 3} {
			if k < 1 {
				continue
			}
			bounds := g.ShardBounds(k, nil)
			for v := int32(0); int(v) < g.N(); v++ {
				var got []int32
				for s := 0; s < k; s++ {
					got = append(got, g.NeighborsRange(v, bounds[s], bounds[s+1])...)
				}
				want := g.Neighbors(v)
				if len(got) != len(want) {
					t.Fatalf("%s k=%d v=%d: %d neighbors covered, want %d", name, k, v, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s k=%d v=%d: covered neighbor %d = %d, want %d", name, k, v, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNeighborsRangeSlices pins NeighborsRange against a filter of the full
// list for arbitrary (not just boundary-aligned) ranges.
func TestNeighborsRangeSlices(t *testing.T) {
	g := ConnectedGNP(120, 0.08, rng.New(11))
	r := rng.New(12)
	for trial := 0; trial < 500; trial++ {
		v := int32(r.Intn(g.N()))
		a := int32(r.Intn(g.N() + 1))
		b := a + int32(r.Intn(g.N()+1-int(a)))
		var want []int32
		for _, u := range g.Neighbors(v) {
			if u >= a && u < b {
				want = append(want, u)
			}
		}
		got := g.NeighborsRange(v, a, b)
		if len(got) != len(want) {
			t.Fatalf("NeighborsRange(%d, %d, %d): %v, want %v", v, a, b, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("NeighborsRange(%d, %d, %d): %v, want %v", v, a, b, got, want)
			}
		}
	}
}

// TestShardBoundsBalance checks the arc-balancing property on a skewed
// graph: no shard owns more than total/k + the heaviest single vertex.
func TestShardBoundsBalance(t *testing.T) {
	g := Star(10000)
	k := 8
	bounds := g.ShardBounds(k, nil)
	total := int64(2*g.M() + g.N())
	limit := total/int64(k) + int64(g.MaxDegree()) + 1
	for s := 0; s < k; s++ {
		var w int64
		for v := bounds[s]; v < bounds[s+1]; v++ {
			w += int64(g.Degree(v)) + 1
		}
		if w > limit {
			t.Fatalf("shard %d weight %d exceeds %d (total %d, k %d)", s, w, limit, total, k)
		}
	}
}
