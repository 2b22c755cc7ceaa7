package core

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/rng"
)

// stackDigest hashes what a Stack.BFS run leaves behind: the labels, every
// base vertex's LB energy, the base clock and the cast failures.
func stackDigest(dist []int32, base *lbnet.UnitNet, st *Stack) string {
	h := fnv.New64a()
	var b [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	for v, l := range dist {
		put(int64(l))
		put(base.LBEnergy(int32(v)))
	}
	put(base.LBTime())
	put(st.CastFailures())
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestStackDigestsPinned pins the numbers themselves, not only the agreement
// of two execution paths: a change that moved the fast and the per-slot path
// together would pass TestUnitStackMatchesPerSlot but fail here. The digests
// cover depths 0, 1 and 2, the stage path at β⁻¹ 16, a last stage that runs
// past d, and failure draws.
func TestStackDigestsPinned(t *testing.T) {
	r := rng.New(53)
	wavefront := Params{InvBeta: 1, Depth: 0, W: 1, Alpha: 4}
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		p    Params
		d    int
		fp   float64
		want string
	}{
		{"cycle/depth0", graph.Cycle(200), wavefront, 120, 0, "9a0931aa5a6bbd3c"},
		{"gnp/depth0/fp", graph.ConnectedGNP(150, 0.03, r), wavefront, 12, 0.1, "09c06d307a88bfcc"},
		{"grid/depth1", graph.Grid(12, 12), Params{InvBeta: 4, Depth: 1, W: 24, Alpha: 4}, 22, 0, "698c90123c69d850"},
		{"gnp/depth1/fp", graph.ConnectedGNP(150, 0.03, r), Params{InvBeta: 2, Depth: 1, W: 24, Alpha: 4}, 20, 0.1, "7a148df1f6b9798b"},
		{"cycle/depth1/stage16", graph.Cycle(300), Params{InvBeta: 16, Depth: 1, W: 24, Alpha: 4}, 150, 0, "4b440e93fe1755e6"},
		{"path/depth1/ragged", graph.Path(120), Params{InvBeta: 8, Depth: 1, W: 24, Alpha: 4}, 61, 0.1, "a20bc9f1f5dfd483"},
		{"cycle/depth2/fp", graph.Cycle(96), Params{InvBeta: 2, Depth: 2, W: 12, Alpha: 4}, 8, 0.1, "933e3bb7bd8e0c32"},
		{"path/depth2", graph.Path(256), Params{InvBeta: 4, Depth: 2, W: 8, Alpha: 4}, 32, 0, "a92df912c6d34a31"},
	} {
		base := lbnet.NewUnitNet(tc.g, tc.fp, 7)
		st, err := BuildStack(base, tc.p, 7)
		if err != nil {
			t.Fatal(err)
		}
		dist := st.BFS([]int32{0}, tc.d)
		if got := stackDigest(dist, base, st); got != tc.want {
			t.Errorf("%s: digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
