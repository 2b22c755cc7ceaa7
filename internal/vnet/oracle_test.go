package vnet

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/radio"
	"repro/internal/rng"
)

// opaque hides a UnitNet's concrete type, so New takes the per-slot cast
// path (one parent LocalBroadcast per step) over the same network.
type opaque struct{ *lbnet.UnitNet }

// twin is one virtual level built twice over identically seeded UnitNets:
// fast casts on the UnitNet itself, slow on opaque{UnitNet}.
type twin struct {
	fast, slow         *VNet
	fastBase, slowBase *lbnet.UnitNet
}

func newTwin(t *testing.T, g *graph.Graph, invBeta int, failProb float64, seed uint64) twin {
	t.Helper()
	cfg := cluster.DefaultConfig(g.N(), invBeta)
	fb := lbnet.NewUnitNet(g, failProb, seed)
	sb := lbnet.NewUnitNet(g, failProb, seed)
	return twin{
		fast:     New(fb, cluster.Build(fb, cfg, seed)),
		slow:     New(opaque{sb}, cluster.Build(opaque{sb}, cfg, seed)),
		fastBase: fb,
		slowBase: sb,
	}
}

// sameMeters fails unless both sides have charged every vertex and every
// cluster the same, read the same clocks and counted the same cast failures.
func (w twin) sameMeters(t *testing.T, what string) {
	t.Helper()
	for v := int32(0); v < int32(w.fastBase.N()); v++ {
		if a, b := w.fastBase.LBEnergy(v), w.slowBase.LBEnergy(v); a != b {
			t.Fatalf("%s: vertex %d paid %d LB units, per-slot path %d", what, v, a, b)
		}
	}
	for c := int32(0); c < int32(w.fast.N()); c++ {
		if a, b := w.fast.LBEnergy(c), w.slow.LBEnergy(c); a != b {
			t.Fatalf("%s: cluster %d paid %d virtual LB units, per-slot path %d", what, c, a, b)
		}
	}
	if a, b := w.fastBase.LBTime(), w.slowBase.LBTime(); a != b {
		t.Fatalf("%s: LBTime %d, per-slot path %d", what, a, b)
	}
	if a, b := w.fast.LBTime(), w.slow.LBTime(); a != b {
		t.Fatalf("%s: virtual LBTime %d, per-slot path %d", what, a, b)
	}
	if a, b := w.fast.CastFailures(), w.slow.CastFailures(); a != b {
		t.Fatalf("%s: %d cast failures, per-slot path %d", what, a, b)
	}
}

// TestUnitCastMatchesPerSlot pins the unit-cost cast (only delivering steps
// resolved, everyone charged once per stage) against the per-slot path on
// the same network: a run of Downcasts with partial participation and
// message-less clusters, sparse Upcasts and virtual Local-Broadcasts must
// produce the same outputs, per-vertex energy, clocks and cast failures. A
// nonzero failProb also pins the order of the failure draws.
func TestUnitCastMatchesPerSlot(t *testing.T) {
	r := rng.New(41)
	// 1/β per graph keeps several clusters (and so foreign senders in
	// shared steps) on each.
	for _, tc := range []struct {
		name    string
		g       *graph.Graph
		invBeta int
	}{
		{"cycle", graph.Cycle(160), 4},
		{"grid", graph.Grid(12, 12), 2},
		{"gnp", graph.ConnectedGNP(150, 0.03, r), 1},
	} {
		for _, fp := range []float64{0, 0.1} {
			for seed := uint64(1); seed <= 2; seed++ {
				name, g := fmt.Sprintf("%s/fp=%v/seed=%d", tc.name, fp, seed), tc.g
				w := newTwin(t, g, tc.invBeta, fp, seed)
				w.sameMeters(t, name+"/build")
				if w.fast.N() < 3 {
					t.Fatalf("%s: degenerate clustering", name)
				}
				pick := rng.New(rng.Derive(seed, 0x0c1e))
				for round := 0; round < 4; round++ {
					castRound(t, w, g, pick, name)
				}
			}
		}
	}
}

// castRound drives one Downcast, two Upcasts (dense and sparse holders) and
// one virtual LocalBroadcast with random arguments through both sides of w
// and compares them.
func castRound(t *testing.T, w twin, g *graph.Graph, pick *rng.Source, name string) {
	t.Helper()
	n, nc := g.N(), w.fast.N()
	part := make([]bool, nc)
	has := make([]bool, nc)
	msgs := make([]radio.Msg, nc)
	for c := range part {
		part[c] = pick.Bernoulli(0.6)
		has[c] = pick.Bernoulli(0.7)
		msgs[c] = radio.Msg{Kind: MsgCast, A: pick.Uint64()}
	}
	gotF, gotS := make([]radio.Msg, n), make([]radio.Msg, n)
	okF, okS := make([]bool, n), make([]bool, n)
	w.fast.Downcast(clusters(part), has, msgs, gotF, okF)
	w.slow.Downcast(clusters(part), has, msgs, gotS, okS)
	if !slices.Equal(gotF, gotS) || !slices.Equal(okF, okS) {
		t.Fatalf("%s: Downcast outputs differ", name)
	}
	w.sameMeters(t, name+"/downcast")

	// A dense and a sparse Upcast: with few holders most listeners have no
	// sender next to them, which is what the unit-cost stage prunes.
	for _, density := range []float64{0.2, 0.02} {
		memberHas := make([]bool, n)
		memberMsg := make([]radio.Msg, n)
		for u := range memberHas {
			memberHas[u] = pick.Bernoulli(density)
			memberMsg[u] = radio.Msg{Kind: MsgCast, A: uint64(u)}
		}
		cgF, cgS := make([]radio.Msg, nc), make([]radio.Msg, nc)
		cokF, cokS := make([]bool, nc), make([]bool, nc)
		w.fast.Upcast(clusters(part), memberHas, memberMsg, cgF, cokF)
		w.slow.Upcast(clusters(part), memberHas, memberMsg, cgS, cokS)
		if !slices.Equal(cgF, cgS) || !slices.Equal(cokF, cokS) {
			t.Fatalf("%s: Upcast (holders %v) outputs differ", name, density)
		}
		w.sameMeters(t, fmt.Sprintf("%s/upcast(%v)", name, density))
	}

	var senders []radio.TX
	var receivers []int32
	for c := int32(0); c < int32(nc); c++ {
		switch x := pick.Uint64() % 4; {
		case x == 0:
			senders = append(senders, radio.TX{ID: c, Msg: radio.Msg{Kind: MsgCast, A: uint64(c) + 1}})
		case x <= 2:
			receivers = append(receivers, c)
		}
	}
	lgF, lgS := make([]radio.Msg, len(receivers)), make([]radio.Msg, len(receivers))
	lokF, lokS := make([]bool, len(receivers)), make([]bool, len(receivers))
	w.fast.LocalBroadcast(senders, receivers, lgF, lokF)
	w.slow.LocalBroadcast(senders, receivers, lgS, lokS)
	if !slices.Equal(lgF, lgS) || !slices.Equal(lokF, lokS) {
		t.Fatalf("%s: virtual LocalBroadcast outputs differ", name)
	}
	w.sameMeters(t, name+"/localbroadcast")
}
