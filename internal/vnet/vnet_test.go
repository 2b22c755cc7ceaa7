package vnet

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/decay"
	"repro/internal/graph"
	"repro/internal/lbnet"
	"repro/internal/radio"
	"repro/internal/rng"
)

// clusters lists the clusters a mask marks, ascending: the participation
// list Downcast and Upcast take.
func clusters(mask []bool) []int32 {
	var out []int32
	for c, in := range mask {
		if in {
			out = append(out, int32(c))
		}
	}
	return out
}

// buildVNet clusters g on a UnitNet and returns the virtual level.
func buildVNet(t *testing.T, g *graph.Graph, invBeta int, seed uint64) (*VNet, lbnet.Net) {
	t.Helper()
	base := lbnet.NewUnitNet(g, 0, seed)
	cfg := cluster.DefaultConfig(g.N(), invBeta)
	cl := cluster.Build(base, cfg, seed)
	return New(base, cl), base
}

func TestDowncastReachesAllMembers(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 5; trial++ {
		g := graph.ConnectedGNP(120, 0.04, r)
		vn, _ := buildVNet(t, g, 4, uint64(trial+1))
		nc := vn.N()
		part := make([]bool, nc)
		has := make([]bool, nc)
		msgs := make([]radio.Msg, nc)
		for c := 0; c < nc; c++ {
			part[c], has[c] = true, true
			msgs[c] = radio.Msg{Kind: 5, A: uint64(c) + 100}
		}
		memberGot := make([]radio.Msg, g.N())
		memberOk := make([]bool, g.N())
		vn.Downcast(clusters(part), has, msgs, memberGot, memberOk)
		for u := 0; u < g.N(); u++ {
			c := vn.Clustering().ClusterOf[u]
			if !memberOk[u] || memberGot[u].A != uint64(c)+100 {
				t.Fatalf("trial %d: member %d of cluster %d missed downcast (ok=%v got=%+v)",
					trial, u, c, memberOk[u], memberGot[u])
			}
		}
		if vn.CastFailures() != 0 {
			t.Fatalf("cast failures: %d", vn.CastFailures())
		}
	}
}

func TestDowncastOnlyParticipants(t *testing.T) {
	g := graph.Grid(10, 10)
	vn, base := buildVNet(t, g, 4, 7)
	nc := vn.N()
	if nc < 2 {
		t.Skip("degenerate clustering")
	}
	part := make([]bool, nc)
	has := make([]bool, nc)
	msgs := make([]radio.Msg, nc)
	part[0], has[0] = true, true
	msgs[0] = radio.Msg{A: 42}
	memberGot := make([]radio.Msg, g.N())
	memberOk := make([]bool, g.N())
	energyBefore := make([]int64, g.N())
	for u := int32(0); u < int32(g.N()); u++ {
		energyBefore[u] = base.LBEnergy(u)
	}
	vn.Downcast(clusters(part), has, msgs, memberGot, memberOk)
	for u := int32(0); u < int32(g.N()); u++ {
		c := vn.Clustering().ClusterOf[u]
		if c == 0 {
			if !memberOk[u] || memberGot[u].A != 42 {
				t.Fatalf("cluster-0 member %d missed downcast", u)
			}
			continue
		}
		if memberOk[u] {
			t.Fatalf("non-participating member %d received a downcast", u)
		}
		if base.LBEnergy(u) != energyBefore[u] {
			t.Fatalf("non-participating member %d spent energy", u)
		}
	}
}

func TestUpcastDeliversToCenter(t *testing.T) {
	r := rng.New(11)
	g := graph.ConnectedGNP(120, 0.04, r)
	vn, _ := buildVNet(t, g, 4, 13)
	cl := vn.Clustering()
	nc := vn.N()
	part := make([]bool, nc)
	for c := range part {
		part[c] = true
	}
	// Every member holds a message naming its own vertex.
	memberHas := make([]bool, g.N())
	memberMsg := make([]radio.Msg, g.N())
	for u := 0; u < g.N(); u++ {
		memberHas[u] = true
		memberMsg[u] = radio.Msg{A: uint64(u) + 1}
	}
	clusterGot := make([]radio.Msg, nc)
	clusterOk := make([]bool, nc)
	vn.Upcast(clusters(part), memberHas, memberMsg, clusterGot, clusterOk)
	for c := 0; c < nc; c++ {
		if !clusterOk[c] {
			t.Fatalf("cluster %d center received nothing", c)
		}
		// The delivered message must come from a member of this cluster.
		src := int32(clusterGot[c].A - 1)
		if cl.ClusterOf[src] != int32(c) {
			t.Fatalf("cluster %d received message from foreign vertex %d", c, src)
		}
	}
	if vn.CastFailures() != 0 {
		t.Fatalf("cast failures: %d", vn.CastFailures())
	}
}

func TestUpcastSingleHolder(t *testing.T) {
	g := graph.Path(60)
	vn, _ := buildVNet(t, g, 4, 17)
	cl := vn.Clustering()
	nc := vn.N()
	// Pick the deepest member of the largest cluster as the lone holder.
	members := cl.Members()
	big, bigLen := 0, 0
	for c, mem := range members {
		if len(mem) > bigLen {
			big, bigLen = c, len(mem)
		}
	}
	var holder int32 = -1
	for _, u := range members[big] {
		if holder == -1 || cl.Layer[u] > cl.Layer[holder] {
			holder = u
		}
	}
	part := make([]bool, nc)
	part[big] = true
	memberHas := make([]bool, g.N())
	memberMsg := make([]radio.Msg, g.N())
	memberHas[holder] = true
	memberMsg[holder] = radio.Msg{A: 777}
	clusterGot := make([]radio.Msg, nc)
	clusterOk := make([]bool, nc)
	vn.Upcast(clusters(part), memberHas, memberMsg, clusterGot, clusterOk)
	if !clusterOk[big] || clusterGot[big].A != 777 {
		t.Fatalf("lone deep holder's message did not reach the center: ok=%v", clusterOk[big])
	}
}

func TestCastFixedDuration(t *testing.T) {
	g := graph.Grid(8, 8)
	vn, base := buildVNet(t, g, 4, 19)
	nc := vn.N()
	before := base.LBTime()
	vn.Downcast(nil, make([]bool, nc), make([]radio.Msg, nc),
		make([]radio.Msg, g.N()), make([]bool, g.N()))
	if got := base.LBTime() - before; got != vn.CastLBs() {
		t.Fatalf("empty downcast consumed %d parent LBs, want %d", got, vn.CastLBs())
	}
	// A fully-participating downcast must consume exactly the same time.
	part := make([]bool, nc)
	has := make([]bool, nc)
	for c := range part {
		part[c], has[c] = true, true
	}
	before = base.LBTime()
	vn.Downcast(clusters(part), has, make([]radio.Msg, nc), make([]radio.Msg, g.N()), make([]bool, g.N()))
	if got := base.LBTime() - before; got != vn.CastLBs() {
		t.Fatalf("full downcast consumed %d parent LBs, want %d", got, vn.CastLBs())
	}
}

func TestVirtualLocalBroadcastMatchesClusterGraph(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 5; trial++ {
		g := graph.ConnectedGNP(100, 0.05, r)
		vn, _ := buildVNet(t, g, 4, uint64(trial+40))
		cg := vn.Graph()
		nc := vn.N()
		if nc < 3 {
			continue
		}
		// Cluster 0 sends; everyone else receives.
		senders := []radio.TX{{ID: 0, Msg: radio.Msg{Kind: 3, A: 999}}}
		var receivers []int32
		for c := int32(1); c < int32(nc); c++ {
			receivers = append(receivers, c)
		}
		got := make([]radio.Msg, len(receivers))
		ok := make([]bool, len(receivers))
		vn.LocalBroadcast(senders, receivers, got, ok)
		for i, c := range receivers {
			adjacent := cg.HasEdge(0, c)
			if adjacent && !ok[i] {
				t.Fatalf("trial %d: cluster %d adjacent to sender heard nothing", trial, c)
			}
			if !adjacent && ok[i] {
				t.Fatalf("trial %d: cluster %d not adjacent to sender heard %+v", trial, c, got[i])
			}
			if ok[i] && got[i].A != 999 {
				t.Fatalf("trial %d: wrong payload %+v", trial, got[i])
			}
		}
		if vn.CastFailures() != 0 {
			t.Fatalf("trial %d: %d cast failures", trial, vn.CastFailures())
		}
	}
}

func TestVirtualLBTiming(t *testing.T) {
	g := graph.Grid(8, 8)
	vn, base := buildVNet(t, g, 4, 29)
	if vn.N() < 2 {
		t.Skip("degenerate clustering")
	}
	before := base.LBTime()
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	vn.LocalBroadcast([]radio.TX{{ID: 0, Msg: radio.Msg{A: 1}}}, []int32{1}, got, ok)
	if used := base.LBTime() - before; used != vn.VLBCost() {
		t.Fatalf("virtual LB consumed %d parent LB units, want %d", used, vn.VLBCost())
	}
	before = base.LBTime()
	vn.SkipLB(3)
	if used := base.LBTime() - before; used != 3*vn.VLBCost() {
		t.Fatalf("SkipLB(3) consumed %d parent LB units, want %d", used, 3*vn.VLBCost())
	}
}

// TestCastEnergyLemma31 is the energy half of Lemma 3.1: each vertex
// participates in O(|S_C|) = O(log n) parent Local-Broadcasts per cast.
func TestCastEnergyLemma31(t *testing.T) {
	r := rng.New(31)
	g := graph.ConnectedGNP(200, 0.03, r)
	base := lbnet.NewUnitNet(g, 0, 37)
	cfg := cluster.DefaultConfig(200, 4)
	cl := cluster.Build(base, cfg, 37)
	vn := New(base, cl)
	pre := make([]int64, g.N())
	for u := int32(0); u < int32(g.N()); u++ {
		pre[u] = base.LBEnergy(u)
	}
	nc := vn.N()
	part := make([]bool, nc)
	has := make([]bool, nc)
	msgs := make([]radio.Msg, nc)
	for c := range part {
		part[c], has[c] = true, true
	}
	vn.Downcast(clusters(part), has, msgs, make([]radio.Msg, g.N()), make([]bool, g.N()))
	// Per-vertex budget: one listen per own subset slot plus one send per
	// slot in the next stage — 2|S_C| + slack. |S_C| concentrates around
	// SubsetLen/C.
	budget := int64(4*cfg.SubsetLen/cfg.C + 16)
	for u := int32(0); u < int32(g.N()); u++ {
		if spent := base.LBEnergy(u) - pre[u]; spent > budget {
			t.Fatalf("vertex %d spent %d parent LBs in one downcast (budget %d)", u, spent, budget)
		}
	}
}

// TestTwoLevelStack builds a VNet on a VNet — the recursion of §4 — and
// checks that casts and virtual LBs still behave.
func TestTwoLevelStack(t *testing.T) {
	g := graph.Grid(16, 16)
	base := lbnet.NewUnitNet(g, 0, 41)
	cfg1 := cluster.DefaultConfig(256, 4)
	cl1 := cluster.Build(base, cfg1, 41)
	v1 := New(base, cl1)
	cfg2 := cluster.DefaultConfig(256, 4)
	cl2 := cluster.Build(v1, cfg2, 43)
	v2 := New(v1, cl2)

	if v2.GlobalN() != 256 {
		t.Fatalf("GlobalN through two levels = %d", v2.GlobalN())
	}
	if bad := cluster.IsPartition(v1.Graph(), cl2); bad != 0 {
		t.Fatalf("level-2 clustering invalid: %d violations", bad)
	}
	nc2 := v2.N()
	if nc2 < 2 {
		t.Skip("level-2 clustering degenerate")
	}
	// Virtual LB on the second level: cluster-graph semantics must hold.
	cg2 := v2.Graph()
	senders := []radio.TX{{ID: 0, Msg: radio.Msg{A: 123}}}
	var receivers []int32
	for c := int32(1); c < int32(nc2); c++ {
		receivers = append(receivers, c)
	}
	got := make([]radio.Msg, len(receivers))
	ok := make([]bool, len(receivers))
	v2.LocalBroadcast(senders, receivers, got, ok)
	for i, c := range receivers {
		if cg2.HasEdge(0, c) != ok[i] {
			t.Fatalf("level-2 LB mismatch at cluster %d: adjacent=%v heard=%v", c, cg2.HasEdge(0, c), ok[i])
		}
	}
	if v1.CastFailures() != 0 || v2.CastFailures() != 0 {
		t.Fatalf("cast failures: level1=%d level2=%d", v1.CastFailures(), v2.CastFailures())
	}
}

// TestVirtualLBOnPhysNet runs the full stack down to radio physics.
func TestVirtualLBOnPhysNet(t *testing.T) {
	g := graph.Grid(6, 6)
	eng := radio.NewEngine(g)
	base := lbnet.NewPhysNet(eng, decay.ParamsFor(36, 8), 47)
	cfg := cluster.DefaultConfig(36, 4)
	cl := cluster.Build(base, cfg, 47)
	vn := New(base, cl)
	nc := vn.N()
	if nc < 2 {
		t.Skip("degenerate clustering")
	}
	cg := vn.Graph()
	senders := []radio.TX{{ID: 0, Msg: radio.Msg{A: 55}}}
	var receivers []int32
	for c := int32(1); c < int32(nc); c++ {
		receivers = append(receivers, c)
	}
	got := make([]radio.Msg, len(receivers))
	ok := make([]bool, len(receivers))
	vn.LocalBroadcast(senders, receivers, got, ok)
	heardAdjacent := 0
	for i, c := range receivers {
		if ok[i] && !cg.HasEdge(0, c) {
			t.Fatalf("non-adjacent cluster %d heard on phys stack", c)
		}
		if ok[i] {
			heardAdjacent++
		}
	}
	// w.h.p. all adjacent clusters hear; require at least one (the graph is
	// connected so cluster 0 has neighbors).
	if heardAdjacent == 0 {
		t.Fatal("no adjacent cluster heard the virtual LB on the phys stack")
	}
	if eng.MsgViolations() != 0 {
		t.Fatalf("message budget violated %d times", eng.MsgViolations())
	}
}

func TestWrapUnwrapRoundTrip(t *testing.T) {
	g := graph.Grid(5, 5)
	vn, _ := buildVNet(t, g, 2, 53)
	m := radio.Msg{Kind: 9, A: 1, B: 2, C: 3, Hdr: 5}
	for c := int32(0); c < int32(vn.N()); c++ {
		w := vn.wrap(m, c)
		u, mine := vn.unwrap(w, c)
		if !mine || u != m {
			t.Fatalf("wrap/unwrap(%d) mangled message: %+v -> %+v", c, m, u)
		}
		if _, other := vn.unwrap(w, c+1); other {
			t.Fatalf("message for cluster %d accepted by %d", c, c+1)
		}
	}
}

func TestSenderReceiverOverlapPanics(t *testing.T) {
	g := graph.Grid(5, 5)
	vn, _ := buildVNet(t, g, 2, 59)
	if vn.N() < 1 {
		t.Skip("no clusters")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for overlapping sender/receiver cluster")
		}
	}()
	got := make([]radio.Msg, 1)
	ok := make([]bool, 1)
	vn.LocalBroadcast([]radio.TX{{ID: 0}}, []int32{0}, got, ok)
}
