package vnet

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/radio"
)

// allocParents names the two cast paths the allocation tests cover: the
// unit-cost path on a UnitNet parent, and the per-slot path, reached here
// through opaque (it is the path every PhysNet and VNet parent takes).
var allocParents = []struct {
	name string
	wrap func(*lbnet.UnitNet) lbnet.Net
}{
	{"unit", func(u *lbnet.UnitNet) lbnet.Net { return u }},
	{"per-slot", func(u *lbnet.UnitNet) lbnet.Net { return opaque{u} }},
}

// buildAllocVNet assembles a small grid-backed virtual network of about n
// vertices for the allocation regression tests, over the parent wrap makes
// of a UnitNet.
func buildAllocVNet(t testing.TB, wrap func(*lbnet.UnitNet) lbnet.Net, n int) (*VNet, *graph.Graph) {
	t.Helper()
	g, ok := graph.Named("grid", n, 1)
	if !ok {
		t.Fatal("grid family missing")
	}
	base := wrap(lbnet.NewUnitNet(g, 0, 1))
	cl := cluster.Build(base, cluster.DefaultConfig(g.N(), 4), 1)
	return New(base, cl), g
}

// TestDowncastUpcastZeroAllocs asserts the steady-state cast paths —
// Downcast and Upcast over VNet-owned scratch, on both cast paths — allocate
// nothing once the scratch slices have reached their working size.
func TestDowncastUpcastZeroAllocs(t *testing.T) {
	for _, p := range allocParents {
		t.Run(p.name, func(t *testing.T) { testCastZeroAllocs(t, p.wrap) })
	}
}

func testCastZeroAllocs(t *testing.T, wrap func(*lbnet.UnitNet) lbnet.Net) {
	vn, g := buildAllocVNet(t, wrap, 144)
	nc := vn.N()
	part := make([]int32, nc)
	has := make([]bool, nc)
	msgs := make([]radio.Msg, nc)
	for c := 0; c < nc; c++ {
		part[c], has[c] = int32(c), true
		msgs[c] = radio.Msg{Kind: MsgCast, A: uint64(c)}
	}
	memberGot := make([]radio.Msg, g.N())
	memberOk := make([]bool, g.N())
	clusterGot := make([]radio.Msg, nc)
	clusterOk := make([]bool, nc)

	// Warm every scratch slice to its working size.
	vn.Downcast(part, has, msgs, memberGot, memberOk)
	vn.Upcast(part, memberOk, memberGot, clusterGot, clusterOk)

	if allocs := testing.AllocsPerRun(20, func() {
		vn.Downcast(part, has, msgs, memberGot, memberOk)
	}); allocs != 0 {
		t.Fatalf("Downcast allocates %v per call in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		vn.Upcast(part, memberOk, memberGot, clusterGot, clusterOk)
	}); allocs != 0 {
		t.Fatalf("Upcast allocates %v per call in steady state, want 0", allocs)
	}
}

// TestVirtualLocalBroadcastZeroAllocs asserts the simulated Local-Broadcast
// (Lemma 3.2: three casts plus one parent LB) allocates nothing in steady
// state after the first call has sized the scratch, on both cast paths. The
// 400-vertex grid is BenchmarkVNetVirtualLBRaw's shape.
func TestVirtualLocalBroadcastZeroAllocs(t *testing.T) {
	for _, p := range allocParents {
		t.Run(p.name, func(t *testing.T) {
			for _, n := range []int{144, 400} {
				testVirtualLBZeroAllocs(t, p.wrap, n)
			}
		})
	}
}

func testVirtualLBZeroAllocs(t *testing.T, wrap func(*lbnet.UnitNet) lbnet.Net, n int) {
	vn, _ := buildAllocVNet(t, wrap, n)
	if vn.N() < 2 {
		t.Fatalf("grid n=%d: degenerate clustering", n)
	}
	senders := []radio.TX{{ID: 0, Msg: radio.Msg{Kind: MsgCast, A: 7}}}
	receivers := []int32{1}
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	vn.LocalBroadcast(senders, receivers, got, ok) // warm scratch
	if allocs := testing.AllocsPerRun(20, func() {
		vn.LocalBroadcast(senders, receivers, got, ok)
	}); allocs != 0 {
		t.Fatalf("grid n=%d: virtual LocalBroadcast allocates %v per call in steady state, want 0", n, allocs)
	}
}
