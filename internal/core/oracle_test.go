package core

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/progress"
	"repro/internal/rng"
)

// opaque hides a UnitNet's concrete type, so cluster growth runs every
// iteration, the level-1 casts run one parent LocalBroadcast per step, the
// level-0 stages one LocalBroadcast per slot and the depth-0 wavefront one
// LocalBroadcast per round.
type opaque struct{ *lbnet.UnitNet }

// sameBase fails unless two identically seeded UnitNets have charged every
// vertex the same and read the same clock.
func sameBase(t *testing.T, what string, fast, slow *lbnet.UnitNet) {
	t.Helper()
	for v := int32(0); v < int32(fast.N()); v++ {
		if a, b := fast.LBEnergy(v), slow.LBEnergy(v); a != b {
			t.Fatalf("%s: vertex %d paid %d LB units, per-slot path %d", what, v, a, b)
		}
	}
	if a, b := fast.LBTime(), slow.LBTime(); a != b {
		t.Fatalf("%s: LBTime %d, per-slot path %d", what, a, b)
	}
}

// TestUnitStackMatchesPerSlot runs Recursive-BFS twice on identically seeded
// UnitNets — once on the net itself, where the level-0 stages, the level-1
// casts and the growth take the unit-cost paths, once behind opaque — and
// requires the same labels, per-vertex and per-cluster energy, clocks,
// cast failures and instrumentation (sender violations, X_i membership counts, Special
// Update counts). At depth 2 the upper level's parent is a VNet, so it
// takes the per-slot path in both runs and each of its steps is a level-1
// virtual Local-Broadcast. The stage rows run β⁻¹ 16 and 64, and radii that
// are not a multiple of β⁻¹, so the last stage runs past d. The depth-0
// rows use the E1 wavefront parameters, so the whole search is trivialBFS
// on the base net; a radius past the eccentricity also covers the rounds
// skipped once everyone is labeled. A nonzero failProb pins the order of
// the failure draws as well.
func TestUnitStackMatchesPerSlot(t *testing.T) {
	r := rng.New(43)
	wavefront := Params{InvBeta: 1, Depth: 0, W: 1, Alpha: 4}
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
		{"cycle/stage16", graph.Cycle(300), Params{InvBeta: 16, Depth: 1, W: 24, Alpha: 4}, 150},
		{"path/stage64", graph.Path(300), Params{InvBeta: 64, Depth: 1, W: 24, Alpha: 4}, 200},
		{"grid/ragged", graph.Grid(12, 12), Params{InvBeta: 8, Depth: 1, W: 24, Alpha: 4}, 21},
		{"cycle/depth0", graph.Cycle(120), wavefront, 70},
		{"gnp/depth0", graph.ConnectedGNP(150, 0.03, r), wavefront, 12},
		{"gnp/depth0/short", graph.ConnectedGNP(150, 0.03, r), wavefront, 3},
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
			fs.Inst, ss.Inst = NewInstrumentation(), NewInstrumentation()
			df := fs.BFS([]int32{0}, tc.d)
			ds := ss.BFS([]int32{0}, tc.d)
			if !slices.Equal(df, ds) {
				t.Fatalf("%s fp=%v: labels differ", tc.name, fp)
			}
			if a, b := fs.Inst.SenderViolations, ss.Inst.SenderViolations; a != b {
				t.Fatalf("%s fp=%v: %d sender violations, per-slot path %d", tc.name, fp, a, b)
			}
			if !reflect.DeepEqual(fs.Inst, ss.Inst) {
				t.Fatalf("%s fp=%v: X_i or Special Update counts differ from the per-slot path", tc.name, fp)
			}
			sameBase(t, fmt.Sprintf("%s fp=%v", tc.name, fp), fast, slow)
			for r, vf := range fs.VNets {
				vs := ss.VNets[r]
				for c := int32(0); c < int32(vf.N()); c++ {
					if a, b := vf.LBEnergy(c), vs.LBEnergy(c); a != b {
						t.Fatalf("%s fp=%v: level-%d cluster %d paid %d, per-slot path %d", tc.name, fp, r+1, c, a, b)
					}
				}
				if a, b := vf.LBTime(), vs.LBTime(); a != b {
					t.Fatalf("%s fp=%v: level-%d LBTime %d, per-slot path %d", tc.name, fp, r+1, a, b)
				}
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

// TestWavefrontUnitMatchesPerRound calls trivialBFS directly on both paths
// with several sources, some of them outside A, and a partial A: vertices
// outside A must stay unlabeled and unmetered, and the rest must get the
// same labels and energy as from one LocalBroadcast per round.
func TestWavefrontUnitMatchesPerRound(t *testing.T) {
	r := rng.New(47)
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		d    int
	}{
		{"grid", graph.Grid(12, 12), 30},
		{"gnp", graph.ConnectedGNP(160, 0.03, r), 6},
		{"geometric", graph.RandomGeometric(160, 0.12, r, false), 40},
	} {
		n := tc.g.N()
		for _, fp := range []float64{0, 0.1} {
			for seed := uint64(1); seed <= 3; seed++ {
				name := fmt.Sprintf("%s/fp=%v/seed=%d", tc.name, fp, seed)
				pick := rng.New(rng.Derive(seed, 0xa5))
				S, A := make([]bool, n), make([]bool, n)
				for v := range A {
					A[v] = pick.Bernoulli(0.8)
					S[v] = pick.Bernoulli(0.03)
				}
				fast := lbnet.NewUnitNet(tc.g, fp, seed)
				slow := lbnet.NewUnitNet(tc.g, fp, seed)
				var st Stack
				df := st.trivialBFS(0, fast, S, A, tc.d)
				ds := st.trivialBFS(0, opaque{slow}, S, A, tc.d)
				if !slices.Equal(df, ds) {
					t.Fatalf("%s: labels differ", name)
				}
				sameBase(t, name, fast, slow)
				for v := range A {
					if !A[v] && (df[v] != Unreached || fast.LBEnergy(int32(v)) != 0) {
						t.Fatalf("%s: vertex %d outside A has label %d and %d LB units", name, v, df[v], fast.LBEnergy(int32(v)))
					}
				}
			}
		}
	}
}

// TestWavefrontUnitCancel cancels the depth-0 search after k rounds on both
// paths: the partial labels, per-vertex energy and clock must agree, and
// the clock must stop at the k rounds that ran.
func TestWavefrontUnitCancel(t *testing.T) {
	g := graph.Grid(10, 10)
	p := Params{InvBeta: 1, Depth: 0, W: 1, Alpha: 4}
	for _, fp := range []float64{0, 0.1} {
		for _, k := range []int64{1, 4, 11} {
			name := fmt.Sprintf("fp=%v/k=%d", fp, k)
			run := func(net lbnet.Net) []int32 {
				st, err := BuildStack(net, p, 5)
				if err != nil {
					t.Fatal(err)
				}
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				rounds := int64(0)
				st.Hooks = progress.Hooks{Ctx: ctx, Obs: progress.Funcs{OnRoundBatch: func(phase string, n int64) {
					if phase == PhaseTrivial {
						if rounds += n; rounds == k {
							cancel()
						}
					}
				}}}
				return st.BFS([]int32{0}, 30)
			}
			fast := lbnet.NewUnitNet(g, fp, 9)
			slow := lbnet.NewUnitNet(g, fp, 9)
			df, ds := run(fast), run(opaque{slow})
			if !slices.Equal(df, ds) {
				t.Fatalf("%s: partial labels differ", name)
			}
			sameBase(t, name, fast, slow)
			if fast.LBTime() != k {
				t.Fatalf("%s: LBTime %d after %d rounds", name, fast.LBTime(), k)
			}
			if slices.Index(df, Unreached) < 0 {
				t.Fatalf("%s: every vertex labeled, so the cancel came too late to test", name)
			}
		}
	}
}
