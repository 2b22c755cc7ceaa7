package diameter

import (
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/radio"
	"repro/internal/rng"
)

func quickStack(t *testing.T, g *graph.Graph, seed uint64) (*core.Stack, *lbnet.UnitNet) {
	t.Helper()
	base := lbnet.NewUnitNet(g, 0, seed)
	p := core.Params{InvBeta: 4, Depth: 1, W: 24, Alpha: 4}
	if g.N() < 32 {
		p.Depth = 0
		p.InvBeta = 1
	}
	st, err := core.BuildStack(base, p, seed)
	if err != nil {
		t.Fatal(err)
	}
	return st, base
}

func TestTreeLayers(t *testing.T) {
	labels := graph.BFS(graph.Path(10), 0)
	tr := NewTree(labels)
	if tr.Height != 9 || tr.Root() != 0 {
		t.Fatalf("height=%d root=%d", tr.Height, tr.Root())
	}
	for l, vs := range tr.byLayer {
		if len(vs) != 1 || vs[0] != int32(l) {
			t.Fatalf("layer %d = %v", l, vs)
		}
	}
}

func TestConvergecastAndBroadcast(t *testing.T) {
	g := graph.Grid(6, 6)
	labels := graph.BFS(g, 0)
	tr := NewTree(labels)
	net := lbnet.NewUnitNet(g, 0, 3)
	n := g.N()
	has := make([]bool, n)
	msg := make([]radio.Msg, n)
	// Flag only the farthest vertex; its bit must reach the root.
	far := int32(0)
	for v := int32(0); v < int32(n); v++ {
		if labels[v] > labels[far] {
			far = v
		}
	}
	has[far] = true
	msg[far] = radio.Msg{Kind: MsgSweepFlag, A: 99}
	okRoot, m := convergecast(net, tr, has, msg)
	if !okRoot || m.A != 99 {
		t.Fatalf("convergecast lost the flag: ok=%v m=%+v", okRoot, m)
	}
	// Broadcast must reach everyone (checked via energy: all layers listen).
	has2 := make([]bool, n)
	msg2 := make([]radio.Msg, n)
	broadcast(net, tr, radio.Msg{Kind: MsgSweepBcast, A: 7}, has2, msg2)
	for v := 0; v < n; v++ {
		if !has2[v] || msg2[v].A != 7 {
			t.Fatalf("vertex %d missed broadcast", v)
		}
	}
}

func TestConvergecastNoFlags(t *testing.T) {
	g := graph.Path(20)
	tr := NewTree(graph.BFS(g, 0))
	net := lbnet.NewUnitNet(g, 0, 5)
	okRoot, _ := convergecast(net, tr, make([]bool, 20), make([]radio.Msg, 20))
	if okRoot {
		t.Fatal("root flagged with no flags in the network")
	}
}

func TestFindMinBasics(t *testing.T) {
	g := graph.Grid(5, 8)
	tr := NewTree(graph.BFS(g, 0))
	net := lbnet.NewUnitNet(g, 0, 7)
	keys := make([]int64, g.N())
	for v := range keys {
		keys[v] = int64((v*7)%40) + 5
	}
	keys[17] = 2 // unique minimum
	got, m, found := FindMin(net, tr, 100, func(v int32) int64 { return keys[v] },
		func(v int32) radio.Msg { return radio.Msg{A: uint64(v)} })
	if !found || got != 2 || m.A != 17 {
		t.Fatalf("FindMin = (%d, %+v, %v), want (2, 17, true)", got, m, found)
	}
}

func TestFindMinAllAbsent(t *testing.T) {
	g := graph.Path(10)
	tr := NewTree(graph.BFS(g, 0))
	net := lbnet.NewUnitNet(g, 0, 9)
	if _, _, found := FindMin(net, tr, 50, func(int32) int64 { return KeyInf }, nil); found {
		t.Fatal("FindMin found a key where none participates")
	}
}

func TestFindMaxBasics(t *testing.T) {
	g := graph.Cycle(30)
	tr := NewTree(graph.BFS(g, 0))
	net := lbnet.NewUnitNet(g, 0, 11)
	got, m, found := FindMax(net, tr, 1000, func(v int32) int64 { return int64(v * 3) },
		func(v int32) radio.Msg { return radio.Msg{A: uint64(v)} })
	if !found || got != 87 || m.A != 29 {
		t.Fatalf("FindMax = (%d, %+v, %v), want (87, v=29)", got, m, found)
	}
}

func TestFindMinEnergyLogarithmic(t *testing.T) {
	g := graph.Path(100)
	tr := NewTree(graph.BFS(g, 0))
	net := lbnet.NewUnitNet(g, 0, 13)
	FindMin(net, tr, 1<<20, func(v int32) int64 { return int64(v) }, nil)
	// ~21 binary-search iterations, each costing every vertex O(1): allow
	// 4 participations per iteration plus the payload relay.
	budget := int64(4*21 + 8)
	if e := lbnet.MaxLBEnergy(net); e > budget {
		t.Fatalf("FindMin energy %d exceeds O(log K) budget %d", e, budget)
	}
}

func TestDesignatedLeader(t *testing.T) {
	l := Designated()
	if l.ID != 0 || !l.Agreed {
		t.Fatalf("designated leader = %+v", l)
	}
}

func TestTwoApproxBounds(t *testing.T) {
	r := rng.New(23)
	cases := []*graph.Graph{
		graph.Path(60),
		graph.Cycle(50),
		graph.Grid(7, 7),
		graph.Star(40),
		graph.ConnectedGNP(64, 0.06, r),
		graph.Lollipop(20, 20),
	}
	for i, g := range cases {
		st, _ := quickStack(t, g, uint64(i+1))
		diam := graph.Diameter(g)
		res := TwoApprox(st, Designated(), g.N())
		if int32(res.Estimate) > diam || int32(res.Estimate) < diam/2 {
			t.Errorf("case %d: 2-approx %d outside [%d, %d]", i, res.Estimate, diam/2, diam)
		}
	}
}

func TestTwoApproxEnergyShape(t *testing.T) {
	g := graph.Cycle(128)
	st, base := quickStack(t, g, 31)
	TwoApprox(st, Designated(), 128)
	// At laptop scale the absolute energy is dominated by the polylog cast
	// constants (see DESIGN.md §4); the asymptotic claim is measured by the
	// E12 experiment. Here we check two structural facts: the run finishes
	// within a generous budget, and sleeping works — the median vertex pays
	// far less than the busiest one.
	if e := lbnet.MaxLBEnergy(base); e > 50000 {
		t.Fatalf("2-approx energy %d beyond any reasonable budget", e)
	}
	// On a cycle every vertex is symmetric, so spreads are small; just
	// check the meters moved and are spread over all vertices.
	if lbnet.TotalLBEnergy(base) <= lbnet.MaxLBEnergy(base) {
		t.Fatal("energy concentrated on a single vertex")
	}
}

func TestThreeHalvesRadioBounds(t *testing.T) {
	r := rng.New(29)
	cases := []*graph.Graph{
		graph.Path(48),
		graph.PathWithTrees(20, 2),
		graph.ConnectedGNP(48, 0.08, r),
	}
	for i, g := range cases {
		st, _ := quickStack(t, g, uint64(i+50))
		diam := graph.Diameter(g)
		res := ThreeHalvesApprox(st, Designated(), g.N(), uint64(i+50))
		lo := diam * 2 / 3
		if res.Estimate > diam || int32(res.Estimate) < lo {
			t.Errorf("case %d: 3/2-approx %d outside [%d, %d] (diam %d)", i, res.Estimate, lo, diam, diam)
		}
		if res.SampleSize == 0 {
			t.Errorf("case %d: empty sample S", i)
		}
		if res.RSize == 0 {
			t.Errorf("case %d: empty R", i)
		}
	}
}

func TestMirrorThreeHalvesBounds(t *testing.T) {
	r := rng.New(37)
	cases := []*graph.Graph{
		graph.Path(500),
		graph.Cycle(700),
		graph.Grid(25, 25),
		graph.PathWithTrees(200, 4),
		graph.ConnectedGNP(600, 0.008, r),
		graph.Lollipop(100, 300),
		graph.RandomGeometric(500, 0.08, r, true),
	}
	for i, g := range cases {
		diam := graph.Diameter(g)
		for seed := uint64(0); seed < 3; seed++ {
			res := MirrorThreeHalves(g, seed)
			lo := diam * 2 / 3
			if res.Estimate > diam || res.Estimate < lo {
				t.Errorf("case %d seed %d: estimate %d outside [%d, %d]", i, seed, res.Estimate, lo, diam)
			}
		}
	}
}

// TestMirrorAgreesWithRadio: on a small graph the radio implementation and
// the centralized mirror follow the same sampling rules, so their estimates
// both respect the band (they need not be equal — tie-breaking inside
// FindMin depends on the schedule — but usually are).
func TestMirrorAgreesWithRadio(t *testing.T) {
	g := graph.Path(40)
	st, _ := quickStack(t, g, 61)
	radioRes := ThreeHalvesApprox(st, Designated(), 40, 61)
	mirrorRes := MirrorThreeHalves(g, 61)
	if radioRes.SampleSize != mirrorRes.SampleSize {
		t.Fatalf("sample sizes differ: radio %d mirror %d", radioRes.SampleSize, mirrorRes.SampleSize)
	}
	diam := graph.Diameter(g)
	for _, est := range []int32{radioRes.Estimate, mirrorRes.Estimate} {
		if est > diam || est < diam*2/3 {
			t.Fatalf("estimate %d outside band (diam %d)", est, diam)
		}
	}
}

// TestFindMinLossyReportsOnlyHeldKeys runs FindMin on a lossy unit-cost
// channel, where a convergecast can miss. A search whose payload never
// reaches the root must report not found, so every found result carries the
// caller's payload and its holder's key is the returned minimum; an ID
// search (no payload) must settle only on a key some vertex holds.
func TestFindMinLossyReportsOnlyHeldKeys(t *testing.T) {
	g := graph.Grid(6, 6)
	labels := graph.BFS(g, 0)
	tr := NewTree(labels)
	n := int64(g.N())
	const kind = 0x7e
	// Both searches favour keys far from the root (vertex 0), so a found
	// result has crossed lossy hops.
	dk := func(v int32) int64 { return int64(tr.Height-labels[v])*n + int64(v) }
	foundPayload, foundID := 0, 0
	for seed := uint64(1); seed <= 300; seed++ {
		net := lbnet.NewUnitNet(g, 0.3, seed)
		key, m, found := FindMin(net, tr, (int64(tr.Height)+2)*n, dk, func(v int32) radio.Msg {
			return radio.Msg{Kind: kind, A: uint64(v)}
		})
		if found {
			foundPayload++
			if m.Kind != kind || m.A >= uint64(n) || dk(int32(m.A)) != key {
				t.Fatalf("seed %d: payload search found key %d with message %+v", seed, key, m)
			}
		}
		pick := rng.New(rng.Derive(seed, 0x1d))
		inS := make([]bool, n)
		for v := 1; v < len(inS); v++ {
			inS[v] = pick.Bernoulli(0.3)
		}
		id, _, found := FindMin(net, tr, n, func(v int32) int64 {
			if inS[v] {
				return int64(v)
			}
			return KeyInf
		}, nil)
		if found {
			foundID++
			if id < 0 || id >= n || !inS[id] {
				t.Fatalf("seed %d: ID search found %d, which no vertex holds", seed, id)
			}
		}
	}
	if foundPayload == 0 || foundID == 0 {
		t.Fatalf("found %d payload and %d ID searches of 300: the channel never delivers", foundPayload, foundID)
	}
	t.Logf("found %d payload and %d ID searches of 300", foundPayload, foundID)
}
