package core

import (
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/rng"
)

// opaque hides a UnitNet's concrete type, so cluster growth runs every
// iteration and the level-1 casts run one parent LocalBroadcast per step.
type opaque struct{ *lbnet.UnitNet }

// TestUnitStackMatchesPerSlot runs Recursive-BFS twice on identically seeded
// UnitNets — once on the net itself, where the level-1 casts and the growth
// take the unit-cost paths, once behind opaque — and requires the same
// labels, per-vertex energy, clock and cast failures. At depth 2 the upper
// level's parent is a VNet, so it takes the per-slot path in both runs and
// each of its steps is a level-1 virtual Local-Broadcast. A nonzero
// failProb pins the order of the failure draws as well.
func TestUnitStackMatchesPerSlot(t *testing.T) {
	r := rng.New(43)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		p    Params
		d    int
	}{
		{"cycle/depth1", graph.Cycle(120), Params{InvBeta: 4, Depth: 1, W: 24, Alpha: 4}, 30},
		{"grid/depth1", graph.Grid(10, 10), Params{InvBeta: 2, Depth: 1, W: 24, Alpha: 4}, 18},
		{"gnp/depth1", graph.ConnectedGNP(120, 0.03, r), Params{InvBeta: 1, Depth: 1, W: 24, Alpha: 4}, 20},
		{"cycle/depth2", graph.Cycle(96), Params{InvBeta: 2, Depth: 2, W: 12, Alpha: 4}, 8},
	} {
		for _, fp := range []float64{0, 0.1} {
			fast := lbnet.NewUnitNet(tc.g, fp, 3)
			slow := lbnet.NewUnitNet(tc.g, fp, 3)
			fs, err := BuildStack(fast, tc.p, 3)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := BuildStack(opaque{slow}, tc.p, 3)
			if err != nil {
				t.Fatal(err)
			}
			df := fs.BFS([]int32{0}, tc.d)
			ds := ss.BFS([]int32{0}, tc.d)
			if !slices.Equal(df, ds) {
				t.Fatalf("%s fp=%v: labels differ", tc.name, fp)
			}
			for v := int32(0); v < int32(tc.g.N()); v++ {
				if a, b := fast.LBEnergy(v), slow.LBEnergy(v); a != b {
					t.Fatalf("%s fp=%v: vertex %d paid %d LB units, per-slot path %d", tc.name, fp, v, a, b)
				}
			}
			if a, b := fast.LBTime(), slow.LBTime(); a != b {
				t.Fatalf("%s fp=%v: LBTime %d, per-slot path %d", tc.name, fp, a, b)
			}
			if a, b := fs.CastFailures(), ss.CastFailures(); a != b {
				t.Fatalf("%s fp=%v: %d cast failures, per-slot path %d", tc.name, fp, a, b)
			}
			if fp == 0 {
				if bad := VerifyAgainstReference(tc.g, []int32{0}, df, tc.d); bad != 0 {
					t.Fatalf("%s: %d labels differ from BFS", tc.name, bad)
				}
			}
		}
	}
}
